//! Self-contained interactive HTML viewer.
//!
//! Generates one HTML file with the graph JSON embedded and a small
//! vanilla-JS viewer implementing the paper's UI interactions (Fig. 5):
//!
//! * a dropdown to locate a table (step 2);
//! * an *explore* button revealing one hop of upstream/downstream tables
//!   per click (step 3);
//! * hovering a column highlights all of its direct downstream columns,
//!   coloured by edge kind (contribute = red, reference = blue, both =
//!   orange — the palette of the paper's figures).
//!
//! Layout is a simple layered left-to-right arrangement ("data flows from
//! left to right", §IV): each relation is placed in the column-layer equal
//! to its longest distance from a base table.

use crate::json::graph_json;
use lineagex_core::LineageGraph;
use serde::Serialize;

/// Render the interactive HTML page for a lineage graph.
pub fn to_html(graph: &LineageGraph) -> String {
    let data = script_json(&graph_json(graph));
    // Table-level edges drive the layered layout and the explore feature.
    let table_edges: Vec<[String; 2]> =
        graph.table_edges().into_iter().map(|(from, to)| [from, to]).collect();
    let table_edges = script_json(&table_edges);
    // One substitution into the template only: the inserted data, which
    // holds SQL names, is never searched for placeholders.
    HTML_TEMPLATE.replacen(
        "/*__VIEWER_DATA__*/",
        &format!("const GRAPH = {data};\nconst TABLE_EDGES = {table_edges};"),
        1,
    )
}

/// `value` as JSON that cannot end the `<script>` element it is embedded
/// in. A browser ends the element at the first `</script>`, even inside a
/// JavaScript string, so every `<` (which JSON has only inside strings)
/// is written as `\u003c`, which JavaScript decodes back to `<`.
fn script_json(value: &impl Serialize) -> String {
    serde_json::to_string(value).expect("viewer data serialises").replace('<', "\\u003c")
}

const HTML_TEMPLATE: &str = r#"<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>LineageX — column lineage</title>
<style>
  body { font-family: Helvetica, Arial, sans-serif; margin: 0; background: #fafafa; }
  #toolbar { padding: 10px 16px; background: #1a73e8; color: white; display: flex; gap: 12px; align-items: center; }
  #toolbar select, #toolbar button { font-size: 14px; padding: 4px 8px; }
  #canvas { position: relative; overflow: auto; height: calc(100vh - 52px); }
  svg { position: absolute; top: 0; left: 0; pointer-events: none; }
  .table-card { position: absolute; background: white; border: 1px solid #bbb; border-radius: 6px; box-shadow: 0 1px 3px rgba(0,0,0,.2); min-width: 150px; }
  .table-card h3 { margin: 0; padding: 6px 10px; font-size: 13px; background: #eef; border-bottom: 1px solid #ccd; border-radius: 6px 6px 0 0; display: flex; justify-content: space-between; }
  .table-card h3 .explore { cursor: pointer; color: #1a73e8; font-weight: normal; }
  .table-card.kind-BaseTable h3 { background: #e8f0fe; }
  .table-card.kind-View h3 { background: #fef7e0; }
  .table-card.kind-External h3 { background: #fce8e6; }
  .col { padding: 3px 10px; font-size: 12px; border-bottom: 1px solid #eee; cursor: pointer; }
  .col:hover { background: #f0f4ff; }
  .col.hl-origin { background: #d2e3fc; font-weight: bold; }
  .col.hl-contribute { background: #fad2cf; }
  .col.hl-reference { background: #d4e6fb; }
  .col.hl-both { background: #ffe3b3; }
  .hidden { display: none; }
</style>
</head>
<body>
<div id="toolbar">
  <strong>LineageX</strong>
  <label>table:
    <select id="picker"><option value="">— choose —</option></select>
  </label>
  <button id="show-all">show all</button>
  <span id="status"></span>
</div>
<div id="canvas"><svg id="edges"></svg></div>
<script>
/*__VIEWER_DATA__*/

const upstream = {}, downstream = {};
for (const [from, to] of TABLE_EDGES) {
  (downstream[from] = downstream[from] || []).push(to);
  (upstream[to] = upstream[to] || []).push(from);
}
// Layer = longest distance from any root (left-to-right data flow).
const layer = {};
function layerOf(name, seen) {
  if (layer[name] !== undefined) return layer[name];
  seen = seen || new Set();
  if (seen.has(name)) return 0;
  seen.add(name);
  const ups = upstream[name] || [];
  const value = ups.length === 0 ? 0 : 1 + Math.max(...ups.map(u => layerOf(u, seen)));
  layer[name] = value;
  return value;
}
GRAPH.nodes.forEach(n => layerOf(n.id));

const visible = new Set();
const canvas = document.getElementById('canvas');
const svg = document.getElementById('edges');
const status = document.getElementById('status');

function colId(ref) { return 'col_' + ref.replace(/[^a-zA-Z0-9_]/g, '_'); }
// Relation and column names are SQL identifiers, which may hold any
// character: escape them before they reach markup or an attribute.
function esc(text) {
  return String(text).replace(/[&<>"']/g, ch =>
    ({ '&': '&amp;', '<': '&lt;', '>': '&gt;', '"': '&quot;', "'": '&#39;' })[ch]);
}

function render() {
  canvas.querySelectorAll('.table-card').forEach(e => e.remove());
  const perLayer = {};
  const shown = GRAPH.nodes.filter(n => visible.has(n.id));
  shown.forEach(n => { (perLayer[layer[n.id]] = perLayer[layer[n.id]] || []).push(n); });
  const cardW = 200, gapX = 90, gapY = 26;
  let maxX = 0, maxY = 0;
  Object.keys(perLayer).sort((a, b) => a - b).forEach(l => {
    let y = 20;
    perLayer[l].forEach(n => {
      const card = document.createElement('div');
      card.className = 'table-card kind-' + n.kind;
      card.style.left = (20 + l * (cardW + gapX)) + 'px';
      card.style.top = y + 'px';
      card.id = 'tbl_' + n.id;
      const canExplore = (upstream[n.id] || []).concat(downstream[n.id] || [])
        .some(t => !visible.has(t));
      card.innerHTML = '<h3>' + esc(n.id) +
        (canExplore ? ' <span class="explore" data-t="' + esc(n.id) + '">explore ⊕</span>' : '') +
        '</h3>' +
        n.columns.map(c => '<div class="col" id="' + colId(n.id + '.' + c) +
          '" data-ref="' + esc(n.id + '.' + c) + '">' + esc(c) + '</div>').join('');
      canvas.appendChild(card);
      y += 34 + n.columns.length * 22 + gapY;
      maxY = Math.max(maxY, y);
    });
    maxX = Math.max(maxX, 20 + (+l + 1) * (cardW + gapX));
  });
  svg.setAttribute('width', maxX + 200);
  svg.setAttribute('height', maxY + 200);
  drawEdges();
  status.textContent = shown.length + ' of ' + GRAPH.nodes.length + ' tables shown';
}

function anchor(ref, side) {
  const el = document.getElementById(colId(ref));
  if (!el) return null;
  const r = el.getBoundingClientRect(), c = canvas.getBoundingClientRect();
  return {
    x: (side === 'left' ? r.left : r.right) - c.left + canvas.scrollLeft,
    y: r.top + r.height / 2 - c.top + canvas.scrollTop,
  };
}

function drawEdges() {
  svg.innerHTML = '';
  const colors = { contribute: '#c5221f', reference: '#1a73e8', both: '#f29900' };
  for (const e of GRAPH.edges) {
    const a = anchor(e.from, 'right'), b = anchor(e.to, 'left');
    if (!a || !b) continue;
    const path = document.createElementNS('http://www.w3.org/2000/svg', 'path');
    const mx = (a.x + b.x) / 2;
    path.setAttribute('d', `M ${a.x} ${a.y} C ${mx} ${a.y} ${mx} ${b.y} ${b.x} ${b.y}`);
    path.setAttribute('stroke', colors[e.kind] || '#888');
    path.setAttribute('stroke-width', e.kind === 'reference' ? 1 : 1.6);
    path.setAttribute('stroke-dasharray', e.kind === 'reference' ? '4 3' : '');
    path.setAttribute('fill', 'none');
    path.setAttribute('opacity', 0.65);
    svg.appendChild(path);
  }
}

canvas.addEventListener('click', ev => {
  const explore = ev.target.closest('.explore');
  if (explore) {
    const t = explore.dataset.t;
    (upstream[t] || []).forEach(u => visible.add(u));
    (downstream[t] || []).forEach(d => visible.add(d));
    render();
  }
});

canvas.addEventListener('mouseover', ev => {
  const col = ev.target.closest('.col');
  if (!col) return;
  document.querySelectorAll('.col').forEach(c =>
    c.classList.remove('hl-origin', 'hl-contribute', 'hl-reference', 'hl-both'));
  const origin = col.dataset.ref;
  col.classList.add('hl-origin');
  // Transitive downstream highlighting (the paper's step 3 hover).
  const queue = [origin], seen = new Set([origin]);
  while (queue.length) {
    const current = queue.shift();
    for (const e of GRAPH.edges) {
      if (e.from === current && !seen.has(e.to)) {
        seen.add(e.to);
        queue.push(e.to);
        const el = document.getElementById(colId(e.to));
        if (el) el.classList.add('hl-' + e.kind);
      }
    }
  }
});

const picker = document.getElementById('picker');
GRAPH.nodes.map(n => n.id).sort().forEach(id => {
  const opt = document.createElement('option');
  opt.value = id; opt.textContent = id;
  picker.appendChild(opt);
});
picker.addEventListener('change', () => {
  if (!picker.value) return;
  visible.clear();
  visible.add(picker.value);
  render();
});
document.getElementById('show-all').addEventListener('click', () => {
  GRAPH.nodes.forEach(n => visible.add(n.id));
  render();
});

// Start with everything visible.
GRAPH.nodes.forEach(n => visible.add(n.id));
render();
window.addEventListener('resize', drawEdges);
</script>
</body>
</html>
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use lineagex_core::lineagex;

    #[test]
    fn html_embeds_graph_data() {
        let graph = lineagex(
            "CREATE TABLE web (cid int, page text);
             CREATE VIEW v AS SELECT page FROM web;",
        )
        .unwrap()
        .graph;
        let html = to_html(&graph);
        assert!(html.contains("<!DOCTYPE html>"));
        assert!(html.contains("const GRAPH = {"), "graph data not embedded");
        assert!(html.contains("const TABLE_EDGES = [["), "table edges not embedded");
        assert!(html.contains("web.page"), "column refs missing");
        // Template placeholder fully replaced.
        assert!(!html.contains("__VIEWER_DATA__"));
    }

    #[test]
    fn sql_names_cannot_end_the_script_or_reach_markup_raw() {
        let name = "x</script><script>alert(1)</script>";
        let graph = lineagex(&format!(
            "CREATE TABLE t (a int); CREATE VIEW \"{name}\" AS SELECT a FROM t;"
        ))
        .unwrap()
        .graph;
        assert!(graph.nodes.contains_key(name));
        let html = to_html(&graph);
        assert_eq!(html.matches("</script>").count(), 1, "only the template's own </script>");
        assert!(html.contains(r"x\u003c/script>\u003cscript>alert(1)\u003c/script>"));

        // Names reach markup only through esc() (or colId(), which keeps
        // only [a-zA-Z0-9_]).
        let start = HTML_TEMPLATE.find("card.innerHTML =").unwrap();
        let end = start + HTML_TEMPLATE[start..].find(".join('')").unwrap();
        let markup = HTML_TEMPLATE[start..end]
            .replace("esc(n.id + '.' + c)", "")
            .replace("colId(n.id + '.' + c)", "")
            .replace("esc(n.id)", "")
            .replace("esc(c)", "");
        assert!(!markup.contains("n.id"), "raw relation name in markup: {markup}");
        assert!(!markup.contains(" c "), "raw column name in markup: {markup}");
    }

    #[test]
    fn a_name_holding_a_placeholder_stays_data() {
        let graph = lineagex(
            "CREATE TABLE t (a int); CREATE VIEW \"/*__VIEWER_DATA__*/\" AS SELECT a FROM t;",
        )
        .unwrap()
        .graph;
        let html = to_html(&graph);
        assert_eq!(html.matches("const GRAPH =").count(), 1);
        assert!(html.contains(r#"{"id":"/*__VIEWER_DATA__*/","kind":"View""#));
    }

    #[test]
    fn html_is_self_contained() {
        let graph =
            lineagex("CREATE TABLE t (a int); CREATE VIEW v AS SELECT a FROM t;").unwrap().graph;
        let html = to_html(&graph);
        assert!(!html.contains("src=\"http"), "must not load external scripts");
        assert!(!html.contains("href=\"http"), "must not load external styles");
    }
}
