package main

// indexHTML is the single-page question-game UI (§6.2): join with a name,
// answer concrete questions on the five-level scale, watch the
// leaderboard, and see the mined answers at the end.
const indexHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>OASSIS — crowd question game</title>
<style>
  body { font: 16px/1.5 system-ui, sans-serif; max-width: 44rem; margin: 2rem auto; padding: 0 1rem; color: #222; }
  h1 { font-size: 1.4rem; }
  .card { border: 1px solid #ccc; border-radius: 8px; padding: 1rem 1.25rem; margin: 1rem 0; }
  button { font: inherit; margin: 0.15rem; padding: 0.35rem 0.8rem; border-radius: 6px; border: 1px solid #888; background: #f5f5f5; cursor: pointer; }
  button:hover { background: #e8e8e8; }
  #question { font-weight: 600; }
  .muted { color: #777; }
  .star-gold::after { content: " ★"; color: #c9a300; }
  .star-silver::after { content: " ★"; color: #9a9a9a; }
  .star-bronze::after { content: " ★"; color: #a05a2c; }
  table { border-collapse: collapse; } td, th { padding: 0.2rem 0.8rem; text-align: left; }
</style>
</head>
<body>
<h1>OASSIS crowd question game</h1>
<div class="card" id="join-card">
  <p>Answer a few questions about your habits and help answer a query.
     Earn stars as you contribute!</p>
  <input id="name" placeholder="your name">
  <button onclick="join()">Join the crowd</button>
  <p class="muted" id="join-msg"></p>
</div>
<div class="card" id="game-card" style="display:none">
  <p id="question" class="muted">waiting for a question…</p>
  <div id="answers"></div>
</div>
<div class="card">
  <h2 style="font-size:1.1rem">Top contributors</h2>
  <table id="board"></table>
</div>
<div class="card" id="results-card" style="display:none">
  <h2 style="font-size:1.1rem">Mined answers</h2>
  <ul id="results"></ul>
</div>
<script>
// Tenant-scoped pages live under /t/{tenant}/; API calls stay inside the
// same tenant. The legacy root page talks to the default tenant.
const base = (location.pathname.match(/^\/t\/[^\/]+/) || [''])[0];
let member = null, pending = null;

async function join() {
  const name = document.getElementById('name').value.trim();
  if (!name) return;
  const r = await fetch(base + '/api/join', {method:'POST', body: JSON.stringify({name})});
  const body = await r.json();
  if (!r.ok) { document.getElementById('join-msg').textContent = body.error; return; }
  member = body.member;
  document.getElementById('join-card').style.display = 'none';
  document.getElementById('game-card').style.display = '';
  loop();
}

async function loop() {
  while (member) {
    const r = await fetch(base + '/api/question?member=' + member);
    const q = await r.json();
    if (q.type === 'done') { showDone(); return; }
    if (q.type === 'wait') continue;
    pending = q;
    render(q);
    return; // wait for the user's click; answer() resumes the loop
  }
}

function render(q) {
  document.getElementById('question').textContent = q.text;
  const box = document.getElementById('answers');
  box.innerHTML = '';
  q.scale.forEach((label, i) => addBtn(box, label, () => answer(i)));
}

function addBtn(box, label, fn) {
  const b = document.createElement('button');
  b.textContent = label;
  b.onclick = fn;
  box.appendChild(b);
}

async function answer(level) {
  const a = {member, session: pending.session, id: pending.id, level};
  await fetch(base + '/api/answer', {method:'POST', body: JSON.stringify(a)});
  document.getElementById('question').textContent = 'thanks! next question…';
  document.getElementById('answers').innerHTML = '';
  refreshBoard();
  loop();
}

function showDone() {
  document.getElementById('question').textContent =
    'All done — the crowd has answered the query. Thank you!';
  document.getElementById('answers').innerHTML = '';
  refreshResults();
}

async function refreshBoard() {
  const rows = await (await fetch(base + '/api/stats')).json();
  const t = document.getElementById('board');
  t.innerHTML = '<tr><th>member</th><th>answers</th></tr>';
  (rows || []).forEach(r => {
    const tr = document.createElement('tr');
    const name = document.createElement('td');
    name.textContent = r.name;
    if (r.star) name.className = 'star-' + r.star;
    const n = document.createElement('td');
    n.textContent = r.answers;
    tr.append(name, n);
    t.appendChild(tr);
  });
}

async function refreshResults() {
  const res = await (await fetch(base + '/api/results')).json();
  if (!res.done) return;
  document.getElementById('results-card').style.display = '';
  const ul = document.getElementById('results');
  ul.innerHTML = '';
  (res.msps || []).forEach(m => {
    const li = document.createElement('li');
    li.textContent = m;
    ul.appendChild(li);
  });
}

refreshBoard();
setInterval(refreshResults, 5000);
</script>
</body>
</html>
`
