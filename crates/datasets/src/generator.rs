//! A seeded random view-pipeline generator with exact ground truth.
//!
//! Views are built *from a lineage plan* — the generator first chooses
//! sources, projections, predicates, and set operations, records the
//! expected `C_con`/`C_ref`/`T` for each choice, and only then renders the
//! SQL. Extracted lineage can therefore be scored exactly, for any seed,
//! which powers the accuracy sweeps and the property tests.

use crate::groundtruth::GroundTruth;
use lineagex_core::DialectKind;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Knobs controlling workload shape. Probabilities are in `[0, 1]`.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// RNG seed; equal seeds give identical workloads.
    pub seed: u64,
    /// Number of base tables.
    pub base_tables: usize,
    /// Columns per base table (inclusive range).
    pub columns_per_table: (usize, usize),
    /// Number of views to generate.
    pub views: usize,
    /// Maximum relations joined per view (≥ 1).
    pub max_sources: usize,
    /// Probability a single-source view projects `SELECT *`.
    pub star_probability: f64,
    /// Probability a view is a set operation of two branches.
    pub setop_probability: f64,
    /// Probability a view routes through a CTE.
    pub cte_probability: f64,
    /// Probability a column reference drops its table prefix (only applied
    /// when the name is unambiguous in scope).
    pub unqualified_probability: f64,
    /// Probability of a `WHERE` predicate.
    pub where_probability: f64,
    /// Probability a projection is an expression over two columns.
    pub expr_probability: f64,
    /// Probability of a `GROUP BY` + aggregate view.
    pub group_by_probability: f64,
    /// Emit the `CREATE VIEW` statements in reverse dependency order, so
    /// extraction must use the auto-inference stack.
    pub shuffle_statements: bool,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            seed: 42,
            base_tables: 5,
            columns_per_table: (3, 6),
            views: 10,
            max_sources: 3,
            star_probability: 0.2,
            setop_probability: 0.15,
            cte_probability: 0.15,
            unqualified_probability: 0.3,
            where_probability: 0.6,
            expr_probability: 0.25,
            group_by_probability: 0.15,
            shuffle_statements: false,
        }
    }
}

impl GeneratorConfig {
    /// A config with the given seed and defaults elsewhere.
    pub fn seeded(seed: u64) -> Self {
        GeneratorConfig { seed, ..Default::default() }
    }
}

/// A generated workload: SQL plus exact expected lineage.
#[derive(Debug, Clone)]
pub struct PipelineWorkload {
    /// Base-table DDL.
    pub ddl: String,
    /// `CREATE VIEW` statements in emission order.
    pub view_statements: Vec<String>,
    /// The exact expected lineage.
    pub ground_truth: GroundTruth,
    /// Names of all generated views in dependency order.
    pub view_names: Vec<String>,
}

impl PipelineWorkload {
    /// The full log (DDL + views) as one script.
    pub fn full_sql(&self) -> String {
        let mut out = self.ddl.clone();
        for stmt in &self.view_statements {
            out.push('\n');
            out.push_str(stmt);
            out.push(';');
        }
        out
    }

    /// Total number of statements (DDL + views).
    pub fn statement_count(&self) -> usize {
        self.ddl.matches(';').count() + self.view_statements.len()
    }

    /// The full log rendered as a native script for a dialect.
    ///
    /// The generator emits only the ANSI core surface, which every
    /// dialect shares, so the statements are reused verbatim; each gets
    /// a banner comment in the dialect's native line-comment style
    /// (`#` for BigQuery, `//` for Snowflake, `--` elsewhere). The log
    /// therefore exercises the dialect's lexer front end while its
    /// ground truth stays exactly [`PipelineWorkload::ground_truth`] —
    /// which is what makes it useful for dialect-equivalence tests.
    pub fn full_sql_for(&self, dialect: DialectKind) -> String {
        let marker = match dialect {
            DialectKind::BigQuery => "#",
            DialectKind::Snowflake => "//",
            _ => "--",
        };
        format!(
            "{marker} generated workload, {} dialect surface\n{}",
            dialect.name(),
            self.full_sql()
        )
    }
}

/// One relation available as a source: a base table or an earlier view.
#[derive(Debug, Clone)]
struct RelInfo {
    name: String,
    columns: Vec<String>,
}

const TABLE_POOL: &[&str] = &[
    "customers",
    "orders",
    "events",
    "sessions",
    "payments",
    "products",
    "clicks",
    "shipments",
    "reviews",
    "inventory",
    "stores",
    "devices",
    "visits",
    "carts",
    "refunds",
    "coupons",
];

/// Generate a workload from a config.
pub fn generate(config: &GeneratorConfig) -> PipelineWorkload {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut gt = GroundTruth::default();
    let mut pool: Vec<RelInfo> = Vec::new();

    // Base tables: globally-unique column names ("{table}_cN") plus a
    // shared "id" column for joins (always referenced qualified).
    let mut ddl = String::new();
    for i in 0..config.base_tables {
        let base_name = TABLE_POOL[i % TABLE_POOL.len()];
        let name =
            if i < TABLE_POOL.len() { base_name.to_string() } else { format!("{base_name}_{i}") };
        let ncols = rng.gen_range(config.columns_per_table.0..=config.columns_per_table.1);
        let mut columns = vec!["id".to_string()];
        for c in 0..ncols {
            columns.push(format!("{name}_c{c}"));
        }
        ddl.push_str(&format!(
            "CREATE TABLE {name} ({});\n",
            columns.iter().map(|c| format!("{c} int")).collect::<Vec<_>>().join(", ")
        ));
        pool.push(RelInfo { name, columns });
    }

    let mut view_statements = Vec::new();
    let mut view_names = Vec::new();
    for v in 0..config.views {
        let name = format!("view_{v}");
        let (sql, outputs) = if rng.gen_bool(config.setop_probability) && pool.len() >= 2 {
            generate_setop_view(&name, &pool, &mut rng, &mut gt)
        } else if rng.gen_bool(config.cte_probability) {
            generate_cte_view(&name, &pool, &mut rng, &mut gt, config)
        } else {
            generate_plain_view(&name, &pool, &mut rng, &mut gt, config)
        };
        view_statements.push(sql);
        view_names.push(name.clone());
        pool.push(RelInfo { name, columns: outputs });
    }

    if config.shuffle_statements {
        view_statements.reverse();
    }

    PipelineWorkload { ddl, view_statements, ground_truth: gt, view_names }
}

/// Pick `n` distinct sources from the pool.
fn pick_sources<'a>(pool: &'a [RelInfo], n: usize, rng: &mut StdRng) -> Vec<&'a RelInfo> {
    let mut indexes: Vec<usize> = (0..pool.len()).collect();
    indexes.shuffle(rng);
    indexes.truncate(n.min(pool.len()));
    indexes.into_iter().map(|i| &pool[i]).collect()
}

/// Non-`id` columns of a relation (globally unique names).
fn unique_cols(rel: &RelInfo) -> Vec<&str> {
    rel.columns.iter().filter(|c| *c != "id").map(|s| s.as_str()).collect()
}

/// A plain (optionally multi-join, star, aggregate) view.
fn generate_plain_view(
    name: &str,
    pool: &[RelInfo],
    rng: &mut StdRng,
    gt: &mut GroundTruth,
    config: &GeneratorConfig,
) -> (String, Vec<String>) {
    let n_sources = rng.gen_range(1..=config.max_sources.max(1)).min(pool.len());
    let sources = pick_sources(pool, n_sources, rng);
    let aliases: Vec<String> = (0..sources.len()).map(|i| format!("s{i}")).collect();

    let mut sql = format!("CREATE VIEW {name} AS SELECT ");
    let mut outputs: Vec<String> = Vec::new();

    // Star view: single source only (keeps output names collision-free).
    if sources.len() == 1 && rng.gen_bool(config.star_probability) {
        let src = sources[0];
        sql.push_str(&format!("* FROM {} AS s0", src.name));
        for col in &src.columns {
            gt.expect_ccon(name, col, &[(&src.name, col)]);
            outputs.push(col.clone());
        }
        gt.expect_tables(name, &[src.name.as_str()]);
        maybe_where(&mut sql, name, src, &aliases[0], rng, gt, config);
        return (sql, outputs);
    }

    // Aggregate view: single source, one key + count(*).
    if rng.gen_bool(config.group_by_probability) {
        let src = sources[0];
        let cols = unique_cols(src);
        let key = cols[rng.gen_range(0..cols.len())];
        let key_out = format!("{name}_o0");
        let cnt_out = format!("{name}_cnt");
        sql.push_str(&format!(
            "s0.{key} AS {key_out}, count(*) AS {cnt_out} FROM {} AS s0 GROUP BY s0.{key}",
            src.name
        ));
        gt.expect_ccon(name, &key_out, &[(&src.name, key)]);
        gt.expect_ccon(name, &cnt_out, &[]);
        gt.expect_cref(name, &[(&src.name, key)]);
        gt.expect_tables(name, &[src.name.as_str()]);
        return (sql, vec![key_out, cnt_out]);
    }

    let n_proj = rng.gen_range(2..=4usize);
    let mut proj_sql: Vec<String> = Vec::new();
    for j in 0..n_proj {
        let si = rng.gen_range(0..sources.len());
        let src = sources[si];
        let alias = &aliases[si];
        let cols = unique_cols(src);
        if cols.is_empty() {
            continue;
        }
        let out_name = format!("{name}_o{j}");
        if rng.gen_bool(config.expr_probability) && cols.len() >= 2 {
            let c1 = cols[rng.gen_range(0..cols.len())];
            let c2 = cols[rng.gen_range(0..cols.len())];
            proj_sql.push(format!("{alias}.{c1} + {alias}.{c2} AS {out_name}"));
            gt.expect_ccon(name, &out_name, &[(&src.name, c1), (&src.name, c2)]);
        } else {
            let col = cols[rng.gen_range(0..cols.len())];
            let unambiguous =
                sources.iter().filter(|s| s.columns.iter().any(|c| c == col)).count() == 1;
            let reference = if unambiguous && rng.gen_bool(config.unqualified_probability) {
                col.to_string()
            } else {
                format!("{alias}.{col}")
            };
            proj_sql.push(format!("{reference} AS {out_name}"));
            gt.expect_ccon(name, &out_name, &[(&src.name, col)]);
        }
        outputs.push(out_name);
    }

    sql.push_str(&proj_sql.join(", "));
    sql.push_str(&format!(" FROM {} AS {}", sources[0].name, aliases[0]));
    for i in 1..sources.len() {
        let left_i = rng.gen_range(0..i);
        let lcol = sources[left_i].columns[rng.gen_range(0..sources[left_i].columns.len())].clone();
        let rcol = sources[i].columns[rng.gen_range(0..sources[i].columns.len())].clone();
        let join_kind = ["JOIN", "LEFT JOIN", "INNER JOIN"][rng.gen_range(0..3)];
        sql.push_str(&format!(
            " {join_kind} {} AS {} ON {}.{} = {}.{}",
            sources[i].name, aliases[i], aliases[left_i], lcol, aliases[i], rcol
        ));
        gt.expect_cref(name, &[(&sources[left_i].name, &lcol), (&sources[i].name, &rcol)]);
    }
    gt.expect_tables(name, &sources.iter().map(|s| s.name.as_str()).collect::<Vec<_>>());
    let wi = rng.gen_range(0..sources.len());
    maybe_where(&mut sql, name, sources[wi], &aliases[wi], rng, gt, config);
    (sql, outputs)
}

/// Maybe append a WHERE predicate over one source column.
fn maybe_where(
    sql: &mut String,
    view: &str,
    src: &RelInfo,
    alias: &str,
    rng: &mut StdRng,
    gt: &mut GroundTruth,
    config: &GeneratorConfig,
) {
    if !rng.gen_bool(config.where_probability) {
        return;
    }
    let col = &src.columns[rng.gen_range(0..src.columns.len())];
    match rng.gen_range(0..3) {
        0 => sql.push_str(&format!(" WHERE {alias}.{col} > 0")),
        1 => sql.push_str(&format!(" WHERE {alias}.{col} BETWEEN 1 AND 100")),
        _ => sql.push_str(&format!(" WHERE {alias}.{col} IS NOT NULL")),
    }
    gt.expect_cref(view, &[(&src.name, col)]);
}

/// A set-operation view: two single-source branches, positionally merged.
fn generate_setop_view(
    name: &str,
    pool: &[RelInfo],
    rng: &mut StdRng,
    gt: &mut GroundTruth,
) -> (String, Vec<String>) {
    let sources = pick_sources(pool, 2, rng);
    let (a, b) = (sources[0], sources[1]);
    let a_cols = unique_cols(a);
    let b_cols = unique_cols(b);
    let width = a_cols.len().min(b_cols.len()).clamp(1, 3);
    let op = ["UNION", "UNION ALL", "INTERSECT", "EXCEPT"][rng.gen_range(0..4)];

    let mut left_proj = Vec::new();
    let mut right_proj = Vec::new();
    let mut outputs = Vec::new();
    for j in 0..width {
        let out_name = format!("{name}_o{j}");
        let ac = a_cols[j % a_cols.len()];
        let bc = b_cols[j % b_cols.len()];
        left_proj.push(format!("l.{ac} AS {out_name}"));
        right_proj.push(format!("r.{bc}"));
        gt.expect_ccon(name, &out_name, &[(&a.name, ac), (&b.name, bc)]);
        // Set-operation rule: both branch projections are referenced.
        gt.expect_cref(name, &[(&a.name, ac), (&b.name, bc)]);
        outputs.push(out_name);
    }
    gt.expect_tables(name, &[a.name.as_str(), b.name.as_str()]);

    let sql = format!(
        "CREATE VIEW {name} AS SELECT {} FROM {} AS l {op} SELECT {} FROM {} AS r",
        left_proj.join(", "),
        a.name,
        right_proj.join(", "),
        b.name
    );
    (sql, outputs)
}

/// A view routed through a CTE (composed-through intermediate).
fn generate_cte_view(
    name: &str,
    pool: &[RelInfo],
    rng: &mut StdRng,
    gt: &mut GroundTruth,
    config: &GeneratorConfig,
) -> (String, Vec<String>) {
    let src = pick_sources(pool, 1, rng)[0];
    let cols = unique_cols(src);
    let width = cols.len().clamp(1, 3);
    let mut inner_proj = Vec::new();
    let mut cte_cols: Vec<(String, String)> = Vec::new(); // (cte col, src col)
    for j in 0..width {
        let col = cols[j % cols.len()];
        let cte_col = format!("k{j}");
        inner_proj.push(format!("t.{col} AS {cte_col}"));
        cte_cols.push((cte_col, col.to_string()));
    }
    let take = rng.gen_range(1..=cte_cols.len());
    let mut outer_proj = Vec::new();
    let mut outputs = Vec::new();
    for (j, (cte_col, src_col)) in cte_cols.iter().take(take).enumerate() {
        let out_name = format!("{name}_o{j}");
        outer_proj.push(format!("{cte_col} AS {out_name}"));
        gt.expect_ccon(name, &out_name, &[(&src.name, src_col)]);
        outputs.push(out_name);
    }
    gt.expect_tables(name, &[src.name.as_str()]);

    let mut inner = format!("SELECT {} FROM {} AS t", inner_proj.join(", "), src.name);
    if rng.gen_bool(config.where_probability) {
        let wcol = &src.columns[rng.gen_range(0..src.columns.len())];
        inner.push_str(&format!(" WHERE t.{wcol} > 0"));
        gt.expect_cref(name, &[(&src.name, wcol)]);
    }
    let sql = format!(
        "CREATE VIEW {name} AS WITH staged AS ({inner}) SELECT {} FROM staged",
        outer_proj.join(", ")
    );
    (sql, outputs)
}

/// Knobs for the large-catalog tier: deep diamond DAGs plus wide
/// fan-out marts, emitted in dependency order with linear string
/// building, so 10k–100k view logs generate in milliseconds.
///
/// Each *component* is an independent pipeline over its own base table
/// (`t_c{i}`): `depth` diamond steps (two filter branches joined back
/// into a merge view) stacked end to end, topped by `fanout` leaf marts
/// reading the final merge. Components share no relations, which is
/// exactly the shape component-sharded scheduling exploits.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// RNG seed; equal seeds give byte-identical SQL.
    pub seed: u64,
    /// Number of independent pipeline components.
    pub components: usize,
    /// Diamond steps per component (3 views each: two branches + merge).
    pub depth: usize,
    /// Leaf marts reading each component's top merge view.
    pub fanout: usize,
}

impl ScaleConfig {
    /// A config with explicit shape knobs.
    pub fn new(seed: u64, components: usize, depth: usize, fanout: usize) -> Self {
        ScaleConfig { seed, components, depth, fanout }
    }

    /// A config sized to roughly `views` total views, using the default
    /// shape (depth 50, fanout 50 → 200 views per component).
    pub fn with_views(seed: u64, views: usize) -> Self {
        let per_component = 3 * 50 + 50;
        ScaleConfig {
            seed,
            components: views.div_ceil(per_component).max(1),
            depth: 50,
            fanout: 50,
        }
    }

    /// Total views this config generates.
    pub fn views(&self) -> usize {
        self.components * (3 * self.depth + self.fanout)
    }
}

/// A large-catalog workload: SQL in dependency order plus the handles
/// the scale benchmarks need (a deep view and its downstream cone).
#[derive(Debug, Clone)]
pub struct ScaledWorkload {
    /// Base-table DDL (one table per component).
    pub ddl: String,
    /// `CREATE VIEW` statements, no trailing semicolon, dependency order.
    pub view_statements: Vec<String>,
    /// View names in the same order.
    pub view_names: Vec<String>,
    /// A view at the bottom of component 0's diamond stack — redefining
    /// it dirties the deepest possible cone.
    pub deep_view: String,
    /// `deep_view` plus everything downstream of it, in dependency order.
    pub deep_cone: Vec<String>,
}

impl ScaledWorkload {
    /// The full log (DDL + views) as one script, built with a single
    /// pre-sized allocation — no quadratic re-copying at 100k views.
    pub fn full_sql(&self) -> String {
        let total =
            self.ddl.len() + self.view_statements.iter().map(|s| s.len() + 2).sum::<usize>();
        let mut out = String::with_capacity(total);
        out.push_str(&self.ddl);
        for stmt in &self.view_statements {
            out.push('\n');
            out.push_str(stmt);
            out.push(';');
        }
        out
    }

    /// Total number of statements (DDL + views).
    pub fn statement_count(&self) -> usize {
        self.ddl.matches(';').count() + self.view_statements.len()
    }

    /// The `i`-th churn script step: a redefinition of [`Self::deep_view`]
    /// whose predicate constant varies with `i`, so every step really
    /// changes the definition and dirties the full deep cone.
    pub fn churn_statement(&self, i: usize) -> String {
        let base =
            self.deep_view.split('_').next().map(|c| c.trim_start_matches('c')).unwrap_or("0");
        format!(
            "CREATE VIEW {} AS SELECT v0, v1, v2 FROM t_c{base} WHERE v1 > {}",
            self.deep_view,
            1000 + i
        )
    }
}

/// Generate a large-catalog workload. Statements come out in dependency
/// order (each view only reads relations emitted before it), so batch
/// ingestion never hits the deferral stack.
pub fn generate_scaled(config: &ScaleConfig) -> ScaledWorkload {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let views = config.views();
    let mut ddl = String::with_capacity(64 * config.components);
    let mut view_statements = Vec::with_capacity(views);
    let mut view_names = Vec::with_capacity(views);
    let mut deep_cone = Vec::new();

    for ci in 0..config.components {
        let base = format!("t_c{ci}");
        ddl.push_str(&format!("CREATE TABLE {base} (id int, v0 int, v1 int, v2 int);\n"));

        let mut prev = base.clone();
        let mut top = base.clone();
        for d in 0..config.depth {
            let a = format!("c{ci}_a{d}");
            let b = format!("c{ci}_b{d}");
            let m = format!("c{ci}_m{d}");
            let ka: u32 = rng.gen_range(1..100);
            let kb: u32 = rng.gen_range(1..100);
            view_statements
                .push(format!("CREATE VIEW {a} AS SELECT v0, v1, v2 FROM {prev} WHERE v1 > {ka}"));
            view_statements
                .push(format!("CREATE VIEW {b} AS SELECT v0, v1, v2 FROM {prev} WHERE v2 > {kb}"));
            view_statements.push(format!(
                "CREATE VIEW {m} AS SELECT a.v0 AS v0, a.v1 AS v1, b.v2 AS v2 \
                 FROM {a} AS a JOIN {b} AS b ON a.v0 = b.v0"
            ));
            if ci == 0 {
                // Everything from the first merge up is downstream of a0.
                if d == 0 {
                    deep_cone.push(a.clone());
                } else {
                    deep_cone.push(a.clone());
                    deep_cone.push(b.clone());
                }
                deep_cone.push(m.clone());
            }
            view_names.push(a);
            view_names.push(b);
            view_names.push(m.clone());
            prev = m.clone();
            top = m;
        }

        for j in 0..config.fanout {
            let leaf = format!("c{ci}_leaf{j}");
            let col = ["v1", "v2"][rng.gen_range(0..2)];
            let k: u32 = rng.gen_range(1..100);
            view_statements.push(format!(
                "CREATE VIEW {leaf} AS SELECT v0, {col} FROM {top} WHERE {col} > {k}"
            ));
            if ci == 0 && config.depth > 0 {
                deep_cone.push(leaf.clone());
            }
            view_names.push(leaf);
        }
    }

    let deep_view = if config.depth > 0 {
        "c0_a0".to_string()
    } else {
        view_names.first().cloned().unwrap_or_default()
    };
    ScaledWorkload { ddl, view_statements, view_names, deep_view, deep_cone }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lineagex_core::lineagex;

    #[test]
    fn generator_is_deterministic() {
        let a = generate(&GeneratorConfig::seeded(7));
        let b = generate(&GeneratorConfig::seeded(7));
        assert_eq!(a.full_sql(), b.full_sql());
        let c = generate(&GeneratorConfig::seeded(8));
        assert_ne!(a.full_sql(), c.full_sql());
    }

    #[test]
    fn generated_sql_parses_and_extracts() {
        let workload = generate(&GeneratorConfig::seeded(1));
        let result = lineagex(&workload.full_sql())
            .unwrap_or_else(|e| panic!("{e}\n{}", workload.full_sql()));
        assert_eq!(result.graph.queries.len(), workload.view_names.len());
    }

    #[test]
    fn extraction_matches_ground_truth_over_many_seeds() {
        for seed in 0..25 {
            let workload = generate(&GeneratorConfig::seeded(seed));
            let result = lineagex(&workload.full_sql())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", workload.full_sql()));
            let failures = workload.ground_truth.diff(&result.graph);
            assert!(
                failures.is_empty(),
                "seed {seed} mismatches:\n{}\nSQL:\n{}",
                failures.join("\n"),
                workload.full_sql()
            );
        }
    }

    #[test]
    fn reversed_statement_order_still_matches_ground_truth() {
        let config = GeneratorConfig { shuffle_statements: true, ..GeneratorConfig::seeded(3) };
        let workload = generate(&config);
        let result = lineagex(&workload.full_sql())
            .unwrap_or_else(|e| panic!("{e}\n{}", workload.full_sql()));
        let failures = workload.ground_truth.diff(&result.graph);
        assert!(failures.is_empty(), "{}", failures.join("\n"));
        // Reversal forces at least one deferral whenever a view reads a view.
        let reads_view = workload.view_statements.iter().any(|s| s.contains("FROM view_"));
        if reads_view {
            assert!(!result.deferrals.is_empty());
        }
    }

    #[test]
    fn scaled_generator_is_deterministic_at_10k_views() {
        let config = ScaleConfig::with_views(11, 10_000);
        assert!(config.views() >= 10_000);
        let a = generate_scaled(&config);
        let b = generate_scaled(&config);
        assert_eq!(a.full_sql(), b.full_sql(), "same seed must be byte-identical");
        assert_eq!(a.view_names.len(), config.views());
        let c = generate_scaled(&ScaleConfig::with_views(12, 10_000));
        assert_ne!(a.full_sql(), c.full_sql(), "different seeds must differ");
    }

    #[test]
    fn scaled_workload_extracts_and_the_deep_cone_is_exact() {
        let config = ScaleConfig::new(5, 3, 4, 2);
        let workload = generate_scaled(&config);
        assert_eq!(workload.view_names.len(), config.views());
        let result = lineagex(&workload.full_sql())
            .unwrap_or_else(|e| panic!("{e}\n{}", workload.full_sql()));
        assert_eq!(result.graph.queries.len(), workload.view_names.len());
        // Dependency order: no deferrals needed.
        assert!(result.deferrals.is_empty());
        // The recorded deep cone matches the graph's actual reachability.
        let reachable: std::collections::BTreeSet<String> = lineagex_core::QuerySpec::new()
            .from_table(&workload.deep_view)
            .table_level()
            .run_on(&result.graph)
            .relations
            .into_iter()
            .map(|r| r.name)
            .collect();
        let cone: std::collections::BTreeSet<String> = workload.deep_cone.iter().cloned().collect();
        assert_eq!(cone, reachable);
        // Churn statements really change the definition every step.
        assert_ne!(workload.churn_statement(0), workload.churn_statement(1));
        assert!(workload.churn_statement(3).contains(&workload.deep_view));
    }

    #[test]
    fn dialect_rendering_extracts_identically_under_every_dialect() {
        let workload = generate(&GeneratorConfig { views: 6, ..GeneratorConfig::seeded(9) });
        let baseline = lineagex(&workload.full_sql()).unwrap();
        for kind in DialectKind::ALL {
            let sql = workload.full_sql_for(kind);
            let result = lineagex_core::LineageX::new()
                .dialect(kind)
                .run(&sql)
                .unwrap_or_else(|e| panic!("{} rendering failed: {e}", kind.name()));
            assert_eq!(result.graph.queries, baseline.graph.queries, "{}", kind.name());
        }
    }

    #[test]
    fn workload_size_scales_with_config() {
        let small = generate(&GeneratorConfig { views: 5, ..GeneratorConfig::seeded(1) });
        let large = generate(&GeneratorConfig { views: 50, ..GeneratorConfig::seeded(1) });
        assert_eq!(small.view_names.len(), 5);
        assert_eq!(large.view_names.len(), 50);
        assert!(large.statement_count() > small.statement_count());
    }
}
