"""The built-in live dashboard served at ``/`` by the gateway.

One self-contained HTML page, zero external dependencies (no CDN, no
fonts, no frameworks): inline CSS + vanilla JS + SVG. It polls
``/v1/diagnostics`` (2s) and ``/metrics`` (5s), subscribes to
``/v1/events`` over SSE, and renders:

- stat tiles (sessions, request rate, ingest queue depth, pool
  utilization, predictor accuracy),
- a per-phase occupancy bar chart,
- predictor-accuracy and ingest-backpressure time-series built from a
  client-side ring buffer of samples,
- the live event feed.

Charts follow the repo's dataviz conventions: single y-axis per chart,
categorical hues in fixed order (blue, orange), value labels in ink —
never in the series color — and light/dark palettes that were validated
for colorblind separation and surface contrast.
"""

DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>repro-phases · operations</title>
<style>
  :root {
    color-scheme: light;
    --page: #f9f9f7; --surface: #fcfcfb;
    --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
    --grid: #e1e0d9; --axis: #c3c2b7;
    --border: rgba(11,11,11,0.10);
    --series-1: #2a78d6; --series-2: #eb6834;
    --good: #0ca30c; --critical: #d03b3b; --warning: #fab219;
  }
  @media (prefers-color-scheme: dark) {
    :root {
      color-scheme: dark;
      --page: #0d0d0d; --surface: #1a1a19;
      --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
      --grid: #2c2c2a; --axis: #383835;
      --border: rgba(255,255,255,0.10);
      --series-1: #3987e5; --series-2: #d95926;
    }
  }
  * { box-sizing: border-box; }
  body {
    margin: 0; background: var(--page); color: var(--ink);
    font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  }
  header {
    display: flex; align-items: baseline; gap: 12px;
    padding: 14px 20px 10px;
  }
  header h1 { font-size: 17px; margin: 0; font-weight: 650; }
  header .meta { color: var(--ink-2); font-size: 12.5px; }
  .badge {
    font-size: 12px; font-weight: 600; border-radius: 10px;
    padding: 2px 9px; border: 1px solid var(--border);
  }
  .badge.ok { color: var(--good); }
  .badge.drain { color: var(--critical); }
  main { padding: 0 20px 28px; max-width: 1180px; margin: 0 auto; }
  .tiles {
    display: grid; gap: 10px;
    grid-template-columns: repeat(auto-fit, minmax(150px, 1fr));
    margin-bottom: 12px;
  }
  .tile {
    background: var(--surface); border: 1px solid var(--border);
    border-radius: 8px; padding: 10px 12px;
  }
  .tile .k { color: var(--muted); font-size: 11.5px;
             text-transform: uppercase; letter-spacing: .04em; }
  .tile .v { font-size: 24px; font-weight: 650; margin-top: 2px; }
  .tile .s { color: var(--ink-2); font-size: 12px; }
  .grid2 {
    display: grid; gap: 12px;
    grid-template-columns: repeat(auto-fit, minmax(340px, 1fr));
  }
  .panel {
    background: var(--surface); border: 1px solid var(--border);
    border-radius: 8px; padding: 12px 14px; margin-bottom: 12px;
  }
  .panel h2 {
    margin: 0 0 2px; font-size: 13px; font-weight: 650;
  }
  .panel .sub { color: var(--muted); font-size: 12px; margin: 0 0 8px; }
  .legend {
    display: flex; gap: 14px; font-size: 12px; color: var(--ink-2);
    margin: 2px 0 4px;
  }
  .legend .sw {
    display: inline-block; width: 10px; height: 10px;
    border-radius: 3px; margin-right: 5px; vertical-align: -1px;
  }
  svg { display: block; width: 100%; }
  svg text { font: 11px system-ui, sans-serif; fill: var(--muted); }
  svg text.val { fill: var(--ink-2); font-variant-numeric: tabular-nums; }
  .gridline { stroke: var(--grid); stroke-width: 1; }
  .axisline { stroke: var(--axis); stroke-width: 1; }
  #events {
    max-height: 300px; overflow-y: auto; font-size: 12.5px;
    font-variant-numeric: tabular-nums;
  }
  #events .row {
    display: flex; gap: 10px; padding: 3px 0;
    border-bottom: 1px solid var(--grid);
  }
  #events .t { color: var(--muted); flex: 0 0 62px; }
  #events .e { font-weight: 600; flex: 0 0 120px; }
  #events .d { color: var(--ink-2); overflow: hidden;
               text-overflow: ellipsis; white-space: nowrap; }
  #workers { font-size: 12.5px; font-variant-numeric: tabular-nums; }
  #workers .row {
    display: flex; gap: 10px; padding: 4px 0;
    border-bottom: 1px solid var(--grid);
  }
  #workers .w { font-weight: 600; flex: 0 0 56px; }
  #workers .st { flex: 0 0 84px; }
  #workers .st.up { color: var(--good); }
  #workers .st.down { color: var(--critical); }
  #workers .d { color: var(--ink-2); }
  #tip {
    position: fixed; pointer-events: none; display: none;
    background: var(--surface); color: var(--ink);
    border: 1px solid var(--border); border-radius: 6px;
    padding: 5px 8px; font-size: 12px;
    box-shadow: 0 2px 8px rgba(0,0,0,.18); z-index: 10;
  }
  #conn { color: var(--muted); font-size: 12px; margin-left: auto; }
</style>
</head>
<body>
<header>
  <h1>repro-phases</h1>
  <span class="badge ok" id="state">● serving</span>
  <span class="meta" id="ident">—</span>
  <span id="conn">connecting…</span>
</header>
<main>
  <div class="tiles">
    <div class="tile"><div class="k">Live sessions</div>
      <div class="v" id="t-sessions">—</div>
      <div class="s" id="t-sessions-s"></div></div>
    <div class="tile"><div class="k">Requests / s</div>
      <div class="v" id="t-rps">—</div>
      <div class="s" id="t-rps-s"></div></div>
    <div class="tile"><div class="k">Ingest queue</div>
      <div class="v" id="t-queue">—</div>
      <div class="s">buffered requests</div></div>
    <div class="tile"><div class="k">Pool slots</div>
      <div class="v" id="t-pool">—</div>
      <div class="s" id="t-pool-s"></div></div>
    <div class="tile"><div class="k">Prediction accuracy</div>
      <div class="v" id="t-acc">—</div>
      <div class="s" id="t-acc-s"></div></div>
    <div class="tile"><div class="k">SSE dropped</div>
      <div class="v" id="t-dropped">0</div>
      <div class="s">events, all subscribers</div></div>
  </div>

  <div class="grid2">
    <div class="panel">
      <h2>Phase occupancy</h2>
      <p class="sub">live sessions per current phase</p>
      <svg id="occupancy" viewBox="0 0 520 190"
           preserveAspectRatio="none" aria-label="Phase occupancy"></svg>
    </div>
    <div class="panel">
      <h2>Predictor accuracy</h2>
      <p class="sub">cumulative, scored per interval boundary</p>
      <div class="legend">
        <span><span class="sw" style="background:var(--series-1)"></span>
          all predictions</span>
        <span><span class="sw" style="background:var(--series-2)"></span>
          confident only</span>
      </div>
      <svg id="accuracy" viewBox="0 0 520 170"
           preserveAspectRatio="none" aria-label="Prediction accuracy"></svg>
    </div>
    <div class="panel">
      <h2>Ingest backpressure</h2>
      <p class="sub">buffered requests across connection queues</p>
      <svg id="backpressure" viewBox="0 0 520 170"
           preserveAspectRatio="none" aria-label="Ingest queue depth"></svg>
    </div>
    <div class="panel">
      <h2>Live events</h2>
      <p class="sub" id="events-sub">via /v1/events (SSE)</p>
      <div id="events"></div>
    </div>
    <div class="panel" id="cluster-panel" style="display:none">
      <h2>Cluster workers</h2>
      <p class="sub" id="cluster-sub">per-worker health and shard
        occupancy</p>
      <div id="workers"></div>
    </div>
  </div>
</main>
<div id="tip"></div>
<script>
"use strict";
const $ = id => document.getElementById(id);
const tip = $("tip");
const MAXPTS = 120, history = [];
let lastDiag = null, lastReq = null, lastReqTime = null;
let eventCount = 0;

function fmt(value, digits) {
  if (value === null || value === undefined) return "—";
  return Number(value).toLocaleString("en-US",
    {maximumFractionDigits: digits === undefined ? 0 : digits});
}
function pct(value) {
  return value === null || value === undefined ? "—"
    : (100 * value).toFixed(1) + "%";
}
function css(name) {
  return getComputedStyle(document.documentElement)
    .getPropertyValue(name).trim();
}
function showTip(evt, html) {
  tip.innerHTML = html; tip.style.display = "block";
  tip.style.left = (evt.clientX + 12) + "px";
  tip.style.top = (evt.clientY + 12) + "px";
}
function hideTip() { tip.style.display = "none"; }

// -- occupancy bar chart ----------------------------------------------------
function drawOccupancy(occ) {
  const svg = $("occupancy");
  const entries = Object.entries(occ)
    .sort((a, b) => (a[0] === "none") - (b[0] === "none")
                    || Number(a[0]) - Number(b[0]));
  const W = 520, H = 190, padL = 8, padB = 22, padT = 14;
  let html = "";
  const max = Math.max(1, ...entries.map(e => e[1]));
  const n = entries.length || 1;
  const span = (W - 2 * padL) / n;
  const bw = Math.min(44, span - 2);
  html += `<line class="axisline" x1="${padL}" y1="${H - padB}"` +
          ` x2="${W - padL}" y2="${H - padB}"/>`;
  entries.forEach(([phase, count], i) => {
    const h = Math.max(2, (H - padB - padT) * count / max);
    const x = padL + i * span + (span - bw) / 2;
    const y = H - padB - h;
    const label = phase === "none" ? "–" : phase;
    html += `<path d="M${x},${H - padB} V${y + 4}` +
      ` q0,-4 4,-4 h${bw - 8} q4,0 4,4 V${H - padB} Z"` +
      ` fill="${css("--series-1")}" data-tip="phase ${label}: ` +
      `${count} session${count === 1 ? "" : "s"}"/>`;
    html += `<text class="val" x="${x + bw / 2}" y="${y - 4}"` +
      ` text-anchor="middle">${count}</text>`;
    html += `<text x="${x + bw / 2}" y="${H - 7}"` +
      ` text-anchor="middle">${label}</text>`;
  });
  if (!entries.length)
    html += `<text x="${W / 2}" y="${H / 2}" text-anchor="middle">` +
            `no live sessions</text>`;
  svg.innerHTML = html;
}

// -- time-series line charts ------------------------------------------------
function linePath(points, x, y) {
  return points.map((p, i) =>
    (i ? "L" : "M") + x(i).toFixed(1) + "," + y(p).toFixed(1)).join(" ");
}
function drawSeries(svg, seriesList, yMax, yFmt) {
  const W = 520, H = Number(svg.viewBox.baseVal.height);
  const padL = 34, padR = 10, padT = 8, padB = 6;
  const n = Math.max(2, history.length);
  const x = i => padL + (W - padL - padR) * i / (n - 1);
  const y = v => H - padB - (H - padT - padB) * Math.min(v, yMax) / yMax;
  let html = "";
  [0, 0.5, 1].forEach(f => {
    const gy = y(yMax * f);
    html += `<line class="gridline" x1="${padL}" y1="${gy}"` +
            ` x2="${W - padR}" y2="${gy}"/>`;
    html += `<text class="val" x="${padL - 4}" y="${gy + 3.5}"` +
            ` text-anchor="end">${yFmt(yMax * f)}</text>`;
  });
  for (const series of seriesList) {
    const pts = series.points;
    if (!pts.length) continue;
    html += `<path d="${linePath(pts, x, y)}" fill="none"` +
      ` stroke="${series.color}" stroke-width="2"` +
      ` stroke-linejoin="round" stroke-linecap="round"/>`;
    const last = pts[pts.length - 1];
    html += `<circle cx="${x(pts.length - 1)}" cy="${y(last)}" r="3"` +
            ` fill="${series.color}"/>`;
    html += `<text class="val" x="${x(pts.length - 1) - 6}"` +
      ` y="${y(last) - 7}" text-anchor="end">${yFmt(last)}</text>`;
  }
  svg.innerHTML = html;
}

function redraw() {
  if (!lastDiag) return;
  drawOccupancy(lastDiag.phase_occupancy || {});
  const acc = history.map(s => s.accuracy ?? 0);
  const conf = history.map(s => s.confident ?? 0);
  drawSeries($("accuracy"), [
    {points: acc, color: css("--series-1")},
    {points: conf, color: css("--series-2")},
  ], 1, v => (100 * v).toFixed(0) + "%");
  const depth = history.map(s => s.queue);
  const dMax = Math.max(4, ...depth);
  drawSeries($("backpressure"),
    [{points: depth, color: css("--series-1")}], dMax, v => fmt(v));
}

// -- polling ----------------------------------------------------------------
async function poll() {
  try {
    const res = await fetch("/v1/diagnostics");
    const diag = await res.json();
    lastDiag = diag;
    const now = performance.now();
    if (lastReq !== null && now > lastReqTime) {
      const rps = 1000 * (diag.requests - lastReq) / (now - lastReqTime);
      $("t-rps").textContent = fmt(Math.max(0, rps), 1);
    }
    lastReq = diag.requests; lastReqTime = now;
    $("t-rps-s").textContent = fmt(diag.requests) + " total";
    $("t-sessions").textContent = fmt(diag.registry.live);
    $("t-sessions-s").textContent =
      fmt(diag.registry.opened) + " opened · " +
      fmt(diag.registry.evicted) + " evicted";
    $("t-queue").textContent = fmt(diag.ingest_queue_depth);
    $("t-pool").textContent =
      fmt(diag.pool.active_slots) + "/" + fmt(diag.pool.capacity);
    $("t-pool-s").textContent = pct(diag.pool.utilization) + " utilized";
    $("t-acc").textContent = pct(diag.prediction.accuracy);
    $("t-acc-s").textContent = fmt(diag.prediction.scored) + " scored · "
      + pct(diag.prediction.confident_accuracy) + " confident";
    $("state").textContent = diag.draining ? "◌ draining" : "● serving";
    $("state").className = "badge " + (diag.draining ? "drain" : "ok");
    drawCluster(diag.cluster);
    history.push({
      accuracy: diag.prediction.accuracy,
      confident: diag.prediction.confident_accuracy,
      queue: diag.ingest_queue_depth,
    });
    if (history.length > MAXPTS) history.shift();
    redraw();
    $("conn").textContent = "";
  } catch (err) {
    $("conn").textContent = "· diagnostics unreachable";
  }
}

// -- cluster worker panel ---------------------------------------------------
function drawCluster(cluster) {
  const panel = $("cluster-panel");
  if (!cluster || !cluster.workers) { panel.style.display = "none"; return; }
  panel.style.display = "";
  const mig = cluster.migrations || {};
  $("cluster-sub").textContent =
    fmt(cluster.sessions) + " sessions · " +
    fmt(mig.completed) + " migrations" +
    (mig.in_progress ? " · " + mig.in_progress + " in flight" : "");
  const box = $("workers");
  box.textContent = "";
  for (const [id, w] of Object.entries(cluster.workers)) {
    const row = document.createElement("div");
    row.className = "row";
    row.innerHTML = `<span class="w"></span><span class="st"></span>` +
                    `<span class="d"></span>`;
    row.children[0].textContent = id;
    row.children[1].textContent = w.state;
    row.children[1].className =
      "st " + (w.state === "up" ? "up"
               : w.state === "stopped" ? "" : "down");
    row.children[2].textContent =
      fmt(w.sessions) + " sessions · " + fmt(w.shards) + " shards" +
      (w.restarts ? " · " + w.restarts + " restart" +
        (w.restarts === 1 ? "" : "s") : "") +
      (w.pid ? " · pid " + w.pid : "");
    box.appendChild(row);
  }
}

async function pollMetrics() {
  try {
    const res = await fetch("/metrics");
    const text = await res.text();
    let dropped = 0, uptime = null, version = "", pid = "";
    for (const line of text.split("\\n")) {
      if (line.startsWith("repro_http_sse_dropped_total "))
        dropped = Number(line.split(" ").pop());
      else if (line.startsWith("repro_service_uptime_seconds "))
        uptime = Number(line.split(" ").pop());
      else if (line.startsWith("repro_service_info{")) {
        version = (line.match(/version="([^"]*)"/) || [])[1] || "";
        pid = (line.match(/pid="([^"]*)"/) || [])[1] || "";
      }
    }
    $("t-dropped").textContent = fmt(dropped);
    $("ident").textContent = "v" + version + " · pid " + pid +
      (uptime === null ? "" : " · up " + fmt(uptime) + "s");
  } catch (err) { /* tile keeps its last value */ }
}

// -- SSE event feed ---------------------------------------------------------
function startEvents() {
  const feed = $("events");
  const source = new EventSource("/v1/events");
  const push = evt => {
    let data = {};
    try { data = JSON.parse(evt.data); } catch (err) { return; }
    eventCount += 1;
    const row = document.createElement("div");
    row.className = "row";
    const ts = new Date().toTimeString().slice(0, 8);
    const detail = Object.entries(data)
      .filter(([k]) => !["event", "seq", "ts"].includes(k))
      .map(([k, v]) => k + "=" + JSON.stringify(v)).join(" ");
    row.innerHTML =
      `<span class="t">${ts}</span>` +
      `<span class="e"></span><span class="d"></span>`;
    row.children[1].textContent = data.event || evt.type;
    row.children[2].textContent = detail;
    feed.prepend(row);
    while (feed.children.length > 40) feed.lastChild.remove();
    $("events-sub").textContent =
      eventCount + " received via /v1/events (SSE)";
  };
  ["interval", "session_opened", "session_closed", "session_evicted",
   "session_expired", "session_hydrated", "service_start",
   "service_stop", "checkpoint_sweep_failed",
   "cluster_start", "cluster_stop", "cluster_worker_started",
   "cluster_worker_ready", "cluster_worker_exited",
   "cluster_worker_restarted", "cluster_worker_drained",
   "cluster_migration_started", "cluster_migration_completed",
   "cluster_migration_failed", "cluster_grown",
  ].forEach(name => source.addEventListener(name, push));
  source.onmessage = push;
  source.onerror = () => {
    $("events-sub").textContent = "event stream reconnecting…";
  };
}

document.addEventListener("mouseover", evt => {
  const target = evt.target.closest("[data-tip]");
  if (target) showTip(evt, target.getAttribute("data-tip"));
});
document.addEventListener("mousemove", evt => {
  const target = evt.target.closest("[data-tip]");
  if (target) showTip(evt, target.getAttribute("data-tip"));
  else hideTip();
});

poll(); pollMetrics(); startEvents();
setInterval(poll, 2000);
setInterval(pollMetrics, 5000);
window.matchMedia("(prefers-color-scheme: dark)")
  .addEventListener("change", redraw);
</script>
</body>
</html>
"""
