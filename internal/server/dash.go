package server

import "net/http"

// handleDash serves the live serving-health dashboard: a single
// zero-dependency HTML page that subscribes to /debug/dash/stream
// (server-sent Stats snapshots, one per second) and renders queue depth,
// worker occupancy, cache hit ratio, per-phase latency percentiles, and
// sparklines of the last two minutes — no build step, no external assets.
func (s *Server) handleDash(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(dashHTML))
}

const dashHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>smtdramd — serving dashboard</title>
<style>
  :root { color-scheme: dark; }
  body { font: 14px/1.5 system-ui, sans-serif; background: #14161a; color: #dde3ea; margin: 2rem; }
  h1 { font-size: 1.2rem; font-weight: 600; }
  h1 small { color: #7d8794; font-weight: 400; margin-left: .75rem; }
  .grid { display: grid; grid-template-columns: repeat(auto-fit, minmax(230px, 1fr)); gap: 1rem; margin-top: 1rem; }
  .card { background: #1c2026; border: 1px solid #2a3038; border-radius: 8px; padding: .9rem 1.1rem; }
  .card h2 { font-size: .75rem; text-transform: uppercase; letter-spacing: .08em; color: #8a93a0; margin: 0 0 .35rem; }
  .big { font-size: 1.7rem; font-variant-numeric: tabular-nums; }
  .sub { color: #7d8794; font-size: .85rem; }
  svg.spark { width: 100%; height: 42px; margin-top: .4rem; }
  svg.spark polyline { fill: none; stroke: #4fa3ff; stroke-width: 1.5; }
  table { border-collapse: collapse; width: 100%; margin-top: .3rem; font-variant-numeric: tabular-nums; }
  th, td { text-align: right; padding: .15rem .5rem; font-size: .85rem; }
  th:first-child, td:first-child { text-align: left; }
  th { color: #8a93a0; font-weight: 500; }
  #state { float: right; font-size: .8rem; color: #7d8794; }
  #state.live { color: #5dd39e; }
  a { color: #4fa3ff; }
</style>
</head>
<body>
<h1>smtdramd <small>serving dashboard</small><span id="state">connecting…</span></h1>
<div class="sub">
  <a href="/v1/stats">/v1/stats</a> · <a href="/metrics">/metrics</a>
</div>
<div class="grid">
  <div class="card"><h2>Queue</h2><div class="big" id="queue">–</div>
    <div class="sub" id="queueCap"></div><svg class="spark" id="sparkQueue"></svg></div>
  <div class="card"><h2>Workers busy</h2><div class="big" id="busy">–</div>
    <div class="sub" id="busyCap"></div><svg class="spark" id="sparkBusy"></svg></div>
  <div class="card"><h2>Cache hit ratio</h2><div class="big" id="hitRatio">–</div>
    <div class="sub" id="cacheDetail"></div><svg class="spark" id="sparkHit"></svg></div>
  <div class="card"><h2>Served p95</h2><div class="big" id="p95">–</div>
    <div class="sub" id="servedDetail"></div><svg class="spark" id="sparkP95"></svg></div>
  <div class="card"><h2>Skip rate</h2><div class="big" id="skipRate">–</div>
    <div class="sub" id="skipDetail"></div><svg class="spark" id="sparkSkip"></svg></div>
  <div class="card"><h2>Warmup checkpoints</h2><div class="big" id="ckptRatio">–</div>
    <div class="sub" id="ckptDetail"></div></div>
  <div class="card"><h2>Durable store</h2><div class="big" id="storeState">–</div>
    <div class="sub" id="storeDetail"></div></div>
  <div class="card"><h2>Jobs</h2>
    <table><tbody id="jobsTable"></tbody></table></div>
  <div class="card"><h2>Go runtime</h2>
    <table><tbody id="rtTable"></tbody></table></div>
</div>
<div class="card" style="margin-top:1rem">
  <h2>Latency phases (served jobs, ms)</h2>
  <table>
    <thead><tr><th>phase</th><th>count</th><th>mean</th><th>p50</th><th>p95</th><th>p99</th><th>max</th></tr></thead>
    <tbody id="phaseTable"></tbody>
  </table>
</div>
<script>
"use strict";
const hist = { queue: [], busy: [], hit: [], p95: [], skip: [] };
const MAXPTS = 120; // two minutes at 1 Hz
function push(series, v) { series.push(v); if (series.length > MAXPTS) series.shift(); }
function spark(id, series) {
  const svg = document.getElementById(id);
  const w = svg.clientWidth || 200, h = svg.clientHeight || 42;
  const max = Math.max(1e-9, ...series);
  const pts = series.map((v, i) =>
    (i * w / Math.max(1, series.length - 1)).toFixed(1) + "," +
    (h - 2 - (v / max) * (h - 6)).toFixed(1)).join(" ");
  svg.setAttribute("viewBox", "0 0 " + w + " " + h);
  svg.innerHTML = '<polyline points="' + pts + '"/>';
}
function fmt(x, d) { return Number(x).toFixed(d === undefined ? 2 : d); }
function row(cells) { return "<tr>" + cells.map(c => "<td>" + c + "</td>").join("") + "</tr>"; }
function kv(rows) { return rows.map(r => row(r)).join(""); }
function phaseRow(name, s) {
  return row([name, s.count, fmt(s.mean_ms), fmt(s.p50_ms), fmt(s.p95_ms), fmt(s.p99_ms), fmt(s.max_ms)]);
}
function render(st) {
  document.getElementById("queue").textContent = st.queue.depth;
  document.getElementById("queueCap").textContent = "of " + st.queue.capacity + " slots";
  document.getElementById("busy").textContent = st.workers.busy;
  document.getElementById("busyCap").textContent = "of " + st.workers.total + " workers";
  document.getElementById("hitRatio").textContent = fmt(st.cache.hit_ratio * 100, 1) + "%";
  document.getElementById("cacheDetail").textContent =
    st.cache.hits + " hits / " + st.cache.misses + " misses / " + st.cache.entries + " entries";
  document.getElementById("p95").textContent = fmt(st.end_to_end.served.p95_ms, 1) + " ms";
  document.getElementById("servedDetail").textContent =
    st.end_to_end.served.count + " served, p99 " + fmt(st.end_to_end.served.p99_ms, 1) + " ms";
  document.getElementById("skipRate").textContent = fmt(st.skip.rate * 100, 1) + "%";
  document.getElementById("skipDetail").textContent =
    st.skip.sim_runs + " runs, " + st.skip.cycles_skipped + " of " + st.skip.cycles_wall + " cycles fast-forwarded";
  const ck = st.checkpoint;
  document.getElementById("ckptRatio").textContent = fmt(ck.hit_ratio * 100, 1) + "%";
  document.getElementById("ckptDetail").textContent =
    ck.hits + " hits / " + ck.misses + " misses / " + ck.forks + " forks · " +
    ck.entries + " entries" + (ck.bypassed ? " · " + ck.bypassed + " bypassed" : "") +
    (ck.evictions ? " · " + ck.evictions + " evicted" : "");
  const sst = st.store, rec = st.recovery;
  document.getElementById("storeState").textContent =
    !sst.configured ? "memory-only" : (sst.degraded ? "DEGRADED" : sst.entries + " entries");
  document.getElementById("storeDetail").textContent = sst.configured
    ? sst.hits + " hits / " + sst.misses + " misses / " + sst.corrupt + " corrupt · " +
      sst.journal_records + " journaled · recovery " + rec.rehydrated + " rehydrated, " +
      rec.reenqueued + " re-enqueued" + (rec.outstanding ? " (" + rec.outstanding + " running)" : "")
    : "start with -data-dir for crash durability";
  document.getElementById("jobsTable").innerHTML = kv([
    ["accepted", st.jobs.accepted], ["completed", st.jobs.completed],
    ["deduped", st.jobs.deduped], ["cached", st.jobs.cached],
    ["failed", st.jobs.failed], ["cancelled", st.jobs.cancelled],
    ["rejected", st.jobs.rejected], ["tracked", st.jobs.tracked]]);
  document.getElementById("rtTable").innerHTML = kv([
    ["goroutines", st.runtime.goroutines],
    ["heap", fmt(st.runtime.heap_alloc_bytes / 1048576, 1) + " MiB"],
    ["GC cycles", st.runtime.gc_cycles],
    ["GC pause total", fmt(st.runtime.gc_pause_total_seconds * 1000, 1) + " ms"],
    ["sched p99", fmt(st.runtime.sched_latency_p99_ms, 3) + " ms"]]);
  document.getElementById("phaseTable").innerHTML =
    phaseRow("admission", st.phases.admission) + phaseRow("queue", st.phases.queue) +
    phaseRow("run", st.phases.run) + phaseRow("respond", st.phases.respond) +
    phaseRow("pool wait", st.pool_wait) + phaseRow("end-to-end", st.end_to_end.served) +
    phaseRow("cache hit", st.end_to_end.cache);
  push(hist.queue, st.queue.depth); push(hist.busy, st.workers.busy);
  push(hist.hit, st.cache.hit_ratio); push(hist.p95, st.end_to_end.served.p95_ms);
  push(hist.skip, st.skip.rate);
  spark("sparkQueue", hist.queue); spark("sparkBusy", hist.busy);
  spark("sparkHit", hist.hit); spark("sparkP95", hist.p95);
  spark("sparkSkip", hist.skip);
}
const es = new EventSource("/debug/dash/stream");
const state = document.getElementById("state");
es.addEventListener("stats", ev => {
  state.textContent = "live"; state.className = "live";
  render(JSON.parse(ev.data));
});
es.onerror = () => { state.textContent = "reconnecting…"; state.className = ""; };
</script>
</body>
</html>
`
