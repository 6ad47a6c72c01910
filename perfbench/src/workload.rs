//! Inputs of every workload, all derived from the seed: the scaled and
//! rich SQL logs, the facts their shape implies, and the serve loop's
//! operation sequence. Nothing here calls LineageX.

use lineagex_datasets::generator::{ScaleConfig, ScaledWorkload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Diamond steps per scaled component.
pub const DEPTH: usize = 50;
/// Leaf marts per scaled component.
pub const FANOUT: usize = 50;
/// Components of `extract-20k` (200 views each).
pub const EXTRACT_COMPONENTS: usize = 100;
/// Components of `serve-10k`.
pub const SERVE_COMPONENTS: usize = 50;
/// Views of `extract-rich-5k`.
pub const RICH_VIEWS: usize = 5_000;

/// A scaled log of `components` independent 200-view components.
pub fn scale_config(seed: u64, components: usize) -> ScaleConfig {
    ScaleConfig::new(seed, components, DEPTH, FANOUT)
}

/// What a correct extraction of a scaled log must report, derived from
/// the generator's statement templates alone.
///
/// Per component: the base table has 4 columns; each diamond step adds
/// two 3-column filter views (2 contribute, 2 reference and 1 both edge
/// each: the filter column is both projected and referenced) and a
/// 3-column merge (2 contribute, 5 reference, 1 both: the join key
/// reaches every output); each leaf has 2 columns (1 of each kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeCounts {
    pub queries: usize,
    pub relations: usize,
    pub columns: usize,
    pub contribute_edges: usize,
    pub reference_edges: usize,
    pub both_edges: usize,
    /// Base table → `depth` filter/merge pairs → leaf.
    pub max_pipeline_depth: usize,
}

pub fn shape_counts(config: &ScaleConfig) -> ShapeCounts {
    let (c, d, f) = (config.components, config.depth, config.fanout);
    ShapeCounts {
        queries: c * (3 * d + f),
        relations: c * (3 * d + f + 1),
        columns: c * (4 + 9 * d + 2 * f),
        contribute_edges: c * (6 * d + f),
        reference_edges: c * (9 * d + f),
        both_edges: c * (3 * d + f),
        max_pipeline_depth: if f > 0 { 2 * d + 1 } else { 2 * d },
    }
}

/// Views re-extracted when `c{i}_a{d}` is redefined: the view, its
/// merge, the three views of every deeper step, and every leaf —
/// `199 - 3d` at the default shape.
pub fn cone_views(config: &ScaleConfig, d: usize) -> usize {
    2 + 3 * (config.depth - 1 - d) + config.fanout
}

/// One script per component: its `CREATE TABLE` followed by its views,
/// so no single request carries the whole catalog.
pub fn component_scripts(workload: &ScaledWorkload, config: &ScaleConfig) -> Vec<String> {
    let per_component = 3 * config.depth + config.fanout;
    workload
        .ddl
        .lines()
        .zip(workload.view_statements.chunks(per_component))
        .map(|(table, views)| {
            let mut script = String::from(table);
            for view in views {
                script.push('\n');
                script.push_str(view);
                script.push(';');
            }
            script
        })
        .collect()
}

/// Every `table.column` of a scaled log, read off its DDL and view
/// projections, one list per component. The lists run in the same
/// structural order (base table, then each view as emitted), so equal
/// positions in two components hold columns of the same shape.
pub fn columns(workload: &ScaledWorkload, config: &ScaleConfig) -> Vec<Vec<String>> {
    let per_component = 3 * config.depth + config.fanout;
    let views = workload.view_names.iter().zip(&workload.view_statements).collect::<Vec<_>>();
    workload
        .ddl
        .lines()
        .zip(views.chunks(per_component))
        .map(|(table, views)| {
            let mut out = Vec::new();
            if let Some((head, rest)) = table.split_once(" (") {
                let name = head.trim_start_matches("CREATE TABLE ");
                for column in rest.trim_end_matches(");").split(", ") {
                    let column = column.split(' ').next().unwrap_or_default();
                    out.push(format!("{name}.{column}"));
                }
            }
            for (name, statement) in views {
                let projection = statement
                    .split_once("SELECT ")
                    .and_then(|(_, rest)| rest.split_once(" FROM "))
                    .map(|(projection, _)| projection)
                    .unwrap_or_default();
                for item in projection.split(", ") {
                    let alias = item.rsplit(' ').next().unwrap_or(item);
                    let column = alias.rsplit('.').next().unwrap_or(alias);
                    out.push(format!("{name}.{column}"));
                }
            }
            out
        })
        .collect()
}

/// A redefinition of `c{i}_a{d}` with the same shape and a predicate
/// constant no generated view uses, so the definition really changes.
pub fn redefine_sql(component: usize, d: usize, constant: usize) -> String {
    let source =
        if d == 0 { format!("t_c{component}") } else { format!("c{component}_m{}", d - 1) };
    format!(
        "CREATE VIEW c{component}_a{d} AS SELECT v0, v1, v2 FROM {source} WHERE v1 > {}",
        1_000 + constant
    )
}

/// One request of the serve loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A one-origin column query.
    Query { origin: String, upstream: bool },
    /// Redefine `c{component}_a{depth}`.
    Ingest { component: usize, depth: usize, sql: String },
    /// The full report.
    Report,
}

impl Op {
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Query { .. } => "query",
            Op::Ingest { .. } => "ingest",
            Op::Report => "report",
        }
    }
}

/// Requests per block: 132 queries (88%), 15 ingests (10%) and one
/// burst of three reports (2%). Every block has exactly this mix, so a
/// run of whole blocks has the same mix on every seed.
pub const BLOCK_QUERIES: usize = 132;
pub const BLOCK_INGESTS: usize = 15;
pub const REPORT_BURST: usize = 3;
pub const BLOCK_LEN: usize = BLOCK_QUERIES + BLOCK_INGESTS + REPORT_BURST;

/// The serve loop's request sequence, generated block by block from
/// the seed: the same seed yields the same requests in the same order.
pub struct OpStream {
    rng: StdRng,
    /// Columns per component, in the same structural order.
    columns: Vec<Vec<String>>,
    depth: usize,
    issued: usize,
    blocks: usize,
}

impl OpStream {
    pub fn new(seed: u64, columns: Vec<Vec<String>>, config: &ScaleConfig) -> OpStream {
        OpStream {
            rng: StdRng::seed_from_u64(seed ^ 0x005E_ED0F_0945),
            columns,
            depth: config.depth,
            issued: 0,
            blocks: 0,
        }
    }

    /// The next block of [`BLOCK_LEN`] requests, in a seeded order.
    ///
    /// Origins and write depths are systematic samples. The block's
    /// queries step evenly through a component's column positions,
    /// alternately downstream and upstream, each in a random component;
    /// its writes step evenly through the depths, each in a random
    /// component. Each block starts the steps at the next point of a
    /// golden-ratio sequence, so over blocks every position and depth is
    /// visited alike, while runs of equal length ask the same shapes of
    /// questions on every seed and their timings barely depend on it.
    pub fn next_block(&mut self) -> Vec<Op> {
        enum Item {
            Query(usize, usize, bool),
            Ingest(usize, usize),
            Burst,
        }
        let components = self.columns.len();
        let positions = self.columns[0].len();
        let offset = (self.blocks as f64 * 0.618_033_988_749_895).fract();
        let step = |j: usize, n: usize, per_block: usize| {
            (((j as f64 + offset) * n as f64 / per_block as f64) as usize).min(n - 1)
        };
        let mut items = Vec::with_capacity(BLOCK_QUERIES + BLOCK_INGESTS + 1);
        for j in 0..BLOCK_QUERIES {
            let component = self.rng.gen_range(0..components);
            items.push(Item::Query(component, step(j, positions, BLOCK_QUERIES), j % 2 == 1));
        }
        for j in 0..BLOCK_INGESTS {
            let component = self.rng.gen_range(0..components);
            items.push(Item::Ingest(component, step(j, self.depth, BLOCK_INGESTS)));
        }
        items.push(Item::Burst);
        items.shuffle(&mut self.rng);
        let mut block = Vec::with_capacity(BLOCK_LEN);
        for item in items {
            match item {
                Item::Query(component, position, upstream) => block.push(Op::Query {
                    origin: self.columns[component][position].clone(),
                    upstream,
                }),
                Item::Ingest(component, depth) => {
                    let sql = redefine_sql(component, depth, self.issued + block.len());
                    block.push(Op::Ingest { component, depth, sql });
                }
                Item::Burst => block.extend(std::iter::repeat_n(Op::Report, REPORT_BURST)),
            }
        }
        self.issued += block.len();
        self.blocks += 1;
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lineagex_datasets::generator::generate_scaled;

    fn stream(seed: u64) -> OpStream {
        let config = ScaleConfig::new(seed, 4, 15, 3);
        OpStream::new(seed, columns(&generate_scaled(&config), &config), &config)
    }

    #[test]
    fn operation_sequence_repeats_for_a_seed_and_differs_across_seeds() {
        let (mut a, mut b, mut c) = (stream(7), stream(7), stream(8));
        for _ in 0..3 {
            let block = a.next_block();
            assert_eq!(block, b.next_block());
            assert_ne!(block, c.next_block());
        }
    }

    #[test]
    fn every_block_has_the_fixed_mix_and_an_unbroken_report_burst() {
        let mut ops = stream(3);
        for _ in 0..4 {
            let block = ops.next_block();
            assert_eq!(block.len(), BLOCK_LEN);
            let count = |kind| block.iter().filter(|op| op.kind() == kind).count();
            assert_eq!(count("query"), BLOCK_QUERIES);
            assert_eq!(count("ingest"), BLOCK_INGESTS);
            let upstream = block.iter().filter(|op| matches!(op, Op::Query { upstream: true, .. }));
            assert_eq!(upstream.count(), BLOCK_QUERIES / 2);
            let mut depths: Vec<usize> = block
                .iter()
                .filter_map(|op| match op {
                    Op::Ingest { depth, .. } => Some(*depth),
                    _ => None,
                })
                .collect();
            depths.sort();
            depths.dedup();
            assert_eq!(depths.len(), 15, "one write per depth stratum");
            let first = block.iter().position(|op| *op == Op::Report).unwrap();
            assert!(block[first..first + REPORT_BURST].iter().all(|op| *op == Op::Report));
        }
    }

    #[test]
    fn shape_counts_match_an_extraction_of_a_small_scaled_log() {
        for config in [ScaleConfig::new(1, 3, 4, 2), ScaleConfig::new(9, 2, 1, 0)] {
            let workload = generate_scaled(&config);
            let result = lineagex_core::lineagex(&workload.full_sql()).unwrap();
            let stats = result.graph.stats();
            let expected = shape_counts(&config);
            assert_eq!(stats.queries, expected.queries);
            assert_eq!(stats.relations, expected.relations);
            assert_eq!(stats.columns, expected.columns);
            assert_eq!(stats.contribute_edges, expected.contribute_edges);
            assert_eq!(stats.reference_edges, expected.reference_edges);
            assert_eq!(stats.both_edges, expected.both_edges);
            assert_eq!(stats.max_pipeline_depth, expected.max_pipeline_depth);
            let per_component = columns(&workload, &config);
            assert_eq!(per_component.len(), config.components);
            assert_eq!(per_component.iter().map(Vec::len).sum::<usize>(), expected.columns);
        }
    }

    #[test]
    fn cone_formula_is_199_minus_3d_and_matches_the_engine() {
        let full = scale_config(0, 1);
        for d in [0, 10, 25, 49] {
            assert_eq!(cone_views(&full, d), 199 - 3 * d);
        }
        let config = ScaleConfig::new(4, 2, 5, 3);
        let workload = generate_scaled(&config);
        let mut engine = lineagex_engine::Engine::new();
        for script in component_scripts(&workload, &config) {
            engine.ingest(&script).unwrap();
        }
        engine.refresh().unwrap();
        for (step, d) in [0, 2, 4].into_iter().enumerate() {
            let before = engine.stats().extractions;
            engine.ingest(&redefine_sql(1, d, step)).unwrap();
            engine.refresh().unwrap();
            assert_eq!((engine.stats().extractions - before) as usize, cone_views(&config, d));
        }
    }

    #[test]
    fn component_scripts_split_the_log_per_component() {
        let config = ScaleConfig::new(2, 3, 2, 2);
        let workload = generate_scaled(&config);
        let scripts = component_scripts(&workload, &config);
        assert_eq!(scripts.len(), 3);
        assert!(scripts[1].starts_with("CREATE TABLE t_c1 "));
        assert_eq!(scripts.concat().matches(';').count(), workload.statement_count());
    }
}
