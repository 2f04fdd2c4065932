"""Scenario files, adversarial game campaigns, benches, and the ring fuzzer.

A scenario is a small line-oriented text format:

    [scenario]          name / seed / kind / period / horizon_periods
    [vfs]               directory-manifest lines (see host.VirtualFs)
    [game]              message path, timing knobs
    [adversary]         default + per-op transforms, global hostile actions
    [task NAME]         period / budget / priority / init_shm for the victim

Two campaign kinds are built on it. The availability game spawns a victim
task that must put either the provisioned message or an explicit fault
notice on the trusted serial device by the horizon, whatever the host does.
The integrity game runs the same scenario twice, hostile and honest twin,
and checks that hostility only ever removed outputs, never forged one.

All randomness is drawn from seeds carried in the scenario text, and reports
are canonical JSON lines, so repeated runs are byte-identical.
"""
from __future__ import annotations

import json
import random

from . import ring as ringmod
from .config import INIT_SHM_ENV, SimConfig, step_bounds
from .enclave import SqeArgs, TranslationEntry
from .errors import EmptyConsume, Untranslatable
from .host import AdversaryPolicy
from .promise import async_open, async_read, async_write
from .ring import Cqe
from .shim import PosixShim, sync_call
from .shm import NORMAL
from .sim import Simulation

FALLBACK = b"HOST-FAULT"


# --- scenario text ---

def parse_scenario(text: str) -> dict:
    """-> {"scenario": {...}, "vfs": str, "game": {...}, "adversary": {...},
    "tasks": {name: {...}}}"""
    out = {"scenario": {}, "vfs": [], "game": {}, "adversary": {}, "tasks": {}}
    section: object = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            head = line[1:-1].split()
            if head[0] == "task":
                if len(head) != 2:
                    raise ValueError(f"line {lineno}: [task NAME]")
                section = out["tasks"].setdefault(head[1], {})
            elif head[0] in ("scenario", "game", "adversary"):
                section = out[head[0]]
            elif head[0] == "vfs":
                section = out["vfs"]
            else:
                raise ValueError(f"line {lineno}: unknown section {head[0]}")
            continue
        if section is None:
            raise ValueError(f"line {lineno}: content before any section")
        if isinstance(section, list):
            section.append(line)
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        section[key.strip()] = value.strip()
    out["vfs"] = "\n".join(out["vfs"])
    return out


def render_scenario(name: str, seed: int, kind: str, vfs: str, game: dict,
                    adversary: dict, tasks: dict) -> str:
    lines = ["[scenario]", f"name = {name}", f"seed = {seed}", f"kind = {kind}",
             "", "[vfs]", vfs.strip(), "", "[game]"]
    lines += [f"{k} = {v}" for k, v in game.items()]
    lines += ["", "[adversary]"]
    lines += [f"{k} = {v}" for k, v in adversary.items()]
    for tname, fields in tasks.items():
        lines += ["", f"[task {tname}]"]
        lines += [f"{k} = {v}" for k, v in fields.items()]
    return "\n".join(lines) + "\n"


def _policy_from(adv: dict) -> AdversaryPolicy:
    """The [adversary] section as a policy; a bad entry raises ValueError
    under its key's name."""
    pol = AdversaryPolicy()
    for key, value in adv.items():
        try:
            if key == "default":
                pol.default = AdversaryPolicy.parse_transform(value)
            elif key == "never_wake":
                pol.never_wake = bool(int(value))
            elif key == "kill_proxy_at":
                pol.kill_proxy_at = int(value)
            elif key == "scribble_rate":
                pol.scribble_rate = float(value)
            elif key == "bad_register":
                if value not in ("dup", "overlap", "size"):
                    raise ValueError(f"no attack {value!r}")
                pol.bad_register = value
            elif key in ringmod.OP_NAMES.values():
                pol.per_op[key] = AdversaryPolicy.parse_transform(value)
            else:
                raise ValueError("no such key or opcode")
        except ValueError as e:
            raise ValueError(f"[adversary] {key}: {e}") from None
    return pol


# --- the availability victim ---

def _victim_factory(msg_path: str, expected: bytes, tau: int, fallback_at: int,
                    payloads: list):
    """Reader that must emit *something* trustworthy by the horizon.

    Retries open/read with per-call timeouts, validates content against the
    provisioned copy, transmits the message on a clean read, or an explicit
    fault notice once the fallback instant passes. Every payload a read
    delivered goes to `payloads`, the oracles' enclave-side ground truth.
    """

    def factory(rt):
        def body():
            done = False
            fd = -1
            size = len(expected)
            while rt.now() < fallback_at and not done:
                if fd < 0:
                    r = yield from sync_call(
                        rt, async_open(rt, msg_path.encode()), tau)
                    if r < 0:
                        yield ("compute", rt.cfg.poll_tick)
                        rt.pump()
                        continue
                    fd = r
                data = yield from sync_call(
                    rt, async_read(rt, fd, size, 0), tau)
                if isinstance(data, (bytes, bytearray)):
                    payloads.append(bytes(data))
                    if bytes(data) == expected:
                        rt.device_tx(bytes(data))
                        done = True
                        continue
                    rt.detections += 1
                yield ("compute", rt.cfg.poll_tick)
                rt.pump()
            if not done:  # the loop above ends undone only at fallback_at
                rt.device_tx(FALLBACK)
            while True:
                yield ("yield",)

        return body()

    return factory


# --- shared run scaffolding ---

def _game_cfg() -> SimConfig:
    return SimConfig(poll_tick=5_000, host_step_cost=10_000,
                     service_base=8_000, service_jitter=2_000,
                     poller_idle_timeout=400_000)


def _build_game_sim(sc: dict, policy: AdversaryPolicy):
    cfg = _game_cfg()
    seed = int(sc["scenario"].get("seed", 0))
    # the oracles and the traced runners read the logs back
    sim = Simulation(cfg=cfg, seed=seed, manifest=sc["vfs"], policy=policy,
                     keep_records=True)
    task = sc["tasks"].get("victim", {})
    period = int(task.get("period", 100_000))
    budget = int(task.get("budget", 50_000))
    horizon = int(sc["game"].get("horizon_periods", 20)) * period
    tau = int(sc["game"].get("timeout_periods", 3)) * period
    fallback_at = (horizon * 3) // 5
    msg_path = sc["game"]["message"]
    if msg_path not in sim.vfs.files:
        raise ValueError(f"message {msg_path} not in the vfs manifest")
    expected = bytes(sim.vfs.files[msg_path].data)
    payloads: list[bytes] = []
    sim.add_host_task(period=period, budget=period - budget, priority=0)
    env = {}
    if task.get("init_shm"):
        env[INIT_SHM_ENV] = task["init_shm"]
    rt = sim.spawn_enclave("victim", period, budget,
                           _victim_factory(msg_path, expected, tau,
                                           fallback_at, payloads),
                           env=env, priority=5)
    return sim, rt, expected, msg_path, horizon, payloads


def _classify_tx(device, name: str, horizon: int, expected: bytes) -> list:
    return ["message" if p == expected else "fallback" if p == FALLBACK
            else "forged"
            for _t, s, p in device.transmissions_before(horizon) if s == name]


def _arrival_by(host, msg_path: str, size: int, cutoff: int) -> bool:
    for ev in host.events:
        if ev[0] != "read_payload":
            continue
        _, t, _eid, _ud, path, clean, off, n, result = ev
        if path == msg_path and clean and off == 0 and n == size \
                and result == size and t <= cutoff:
            return True
    return False


# --- availability game ---

def _run_game1(text: str):
    sc = parse_scenario(text)
    policy = _policy_from(sc["adversary"])
    sim, rt, expected, msg_path, horizon, _ = _build_game_sim(sc, policy)
    sim.run_until(horizon)
    kinds = _classify_tx(sim.device, "victim", horizon, expected)
    arrival = _arrival_by(sim.host, msg_path, len(expected), horizon // 2)
    ok_live = kinds in (["message"], ["fallback"])
    # a clean arrival owes the message, unless the host could spoil it
    corrupting = policy.scribble_rate > 0 or \
        ("corrupt",) in (policy.default, *policy.per_op.values())
    ok_strict = corrupting or not arrival or kinds == ["message"]
    row = {
        "name": sc["scenario"].get("name", "?"),
        "kind": "game1",
        "arrival": arrival,
        "tx": kinds[0] if len(kinds) == 1 else ",".join(kinds) or "none",
        "detections": rt.detections,
        "ok": bool(ok_live and ok_strict),
    }
    sim.close()
    return row, sim


def run_game1(text: str) -> dict:
    return _run_game1(text)[0]


def run_game1_traced(text: str) -> tuple[dict, list[str]]:
    """Row plus the full scheduler trace, for replay comparisons."""
    row, sim = _run_game1(text)
    return row, sim.sched.export_trace_lines()


def generate_game1(seed: int, count: int) -> list[str]:
    """Deterministic scenario corpus sweeping every hostile policy family."""
    rng = random.Random(seed)
    horizon_periods = 20
    period = 100_000
    families = [
        {"default": "honest"},
        {"default": "honest", "read": "deny"},
        {"default": "deny"},
        {"default": "honest", "open": "deny"},
        {"default": "honest", "read": "delay:50000"},
        {"default": "honest", "read": "delay:1500000"},
        {"default": "honest", "read": "corrupt"},
        {"default": "honest", "read": "duplicate"},
        {"default": "honest", "read": "flood:2"},
        {"default": "honest", "read": "flood:8"},
        {"default": "honest", "kill_proxy_at": "0"},
        {"default": "honest", "kill_proxy_at": str(5 * period)},
        {"default": "honest", "never_wake": "1"},
        {"default": "honest", "scribble_rate": "0.05"},
        {"default": "honest", "read": "corrupt", "scribble_rate": "0.05"},
        {"default": "honest", "read": "flood:4", "open": "delay:80000"},
    ]
    out = []
    for i in range(count):
        adv = dict(families[i % len(families)])
        msize = rng.choice([64, 128, 256, 512, 1024])
        mblock = rng.choice([64, 128, 256])
        vfs = f"/data/\n/data/msg{i:04d}.bin {msize} {mblock} 0"
        game = {"message": f"/data/msg{i:04d}.bin",
                "horizon_periods": horizon_periods, "timeout_periods": 3}
        tasks = {"victim": {"period": period, "budget": 50_000,
                            "init_shm": rng.choice([0, 65536, 131072]) or ""}}
        if not tasks["victim"]["init_shm"]:
            del tasks["victim"]["init_shm"]
        out.append(render_scenario(f"g1-{i:04d}", rng.randrange(1 << 30),
                                   "game1", vfs, game, adv, tasks))
    return out


# --- integrity game (hostile run vs honest twin) ---

def _run_game2(text: str):
    sc = parse_scenario(text)
    hostile = _policy_from(sc["adversary"])
    honest = AdversaryPolicy()
    sim_h, rt_h, expected, _, horizon, payloads = _build_game_sim(sc, hostile)
    sim_h.run_until(horizon)
    sim_t = _build_game_sim(sc, honest)[0]
    sim_t.run_until(horizon)

    kinds_h = _classify_tx(sim_h.device, "victim", horizon, expected)
    kinds_t = _classify_tx(sim_t.device, "victim", horizon, expected)
    # outputs under attack are a subset of honest outputs plus the fault notice
    ok_subset = all(k in ("fallback",) or k in kinds_t for k in kinds_h) \
        and "forged" not in kinds_h and kinds_t == ["message"]
    ids = [i for i, _ in rt_h.handle.delivered_log]
    ok_unique = len(ids) == len(set(ids))
    rejects = [e for e in sim_h.host.events if e[0] == "registration_rejected"]
    atomics = [e for e in sim_h.host.events if e[0] == "reg_atomic"]
    attack = sc["adversary"].get("bad_register", "")
    ok_atomic = all(e[2] for e in atomics)
    if attack:
        ok_atomic = ok_atomic and len(rejects) >= 1
    ok_detect = rt_h.detections == sum(p != expected for p in payloads)
    row = {
        "name": sc["scenario"].get("name", "?"),
        "kind": "game2",
        "attack": attack or "transforms",
        "tx": ",".join(kinds_h) or "none",
        "twin_tx": ",".join(kinds_t) or "none",
        "ok_subset": ok_subset,
        "ok_unique": ok_unique,
        "ok_atomic": ok_atomic,
        "ok_detect": ok_detect,
        "ok": bool(ok_subset and ok_unique and ok_atomic and ok_detect),
    }
    sim_h.close()
    sim_t.close()
    return row, sim_h, sim_t


def run_game2(text: str) -> dict:
    return _run_game2(text)[0]


def run_game2_traced(text: str) -> tuple[dict, list[str]]:
    """Row plus the hostile run's scheduler trace, then the twin's."""
    row, sim_h, sim_t = _run_game2(text)
    return row, (sim_h.sched.export_trace_lines() + ["--- honest twin ---"]
                 + sim_t.sched.export_trace_lines())


def generate_game2(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    period = 100_000
    families = [
        {"default": "honest", "read": "corrupt"},
        {"default": "honest", "read": "corrupt", "statx": "corrupt"},
        {"default": "honest", "read": "duplicate"},
        {"default": "honest", "read": "flood:8"},
        {"default": "honest", "scribble_rate": "0.05"},
        {"default": "honest", "scribble_rate": "0.2"},
        {"default": "honest", "bad_register": "dup"},
        {"default": "honest", "bad_register": "overlap"},
        {"default": "honest", "bad_register": "size"},
        {"default": "honest", "read": "corrupt", "scribble_rate": "0.05"},
    ]
    out = []
    for i in range(count):
        adv = dict(families[i % len(families)])
        msize = rng.choice([64, 256, 512])
        vfs = f"/data/\n/data/msg{i:04d}.bin {msize} 128 0"
        game = {"message": f"/data/msg{i:04d}.bin",
                "horizon_periods": 20, "timeout_periods": 3}
        tasks = {"victim": {"period": period, "budget": 50_000,
                            "init_shm": 65536}}
        out.append(render_scenario(f"g2-{i:04d}", rng.randrange(1 << 30),
                                   "game2", vfs, game, adv, tasks))
    return out


# --- throughput bench: batched-pipelined vs call-per-op ---

_BENCH_CHUNKS = 64
_BENCH_CHUNK = 512
_BENCH_COMPUTE = 5_000  # per-chunk work; a quarter of the per-op latency


def _bench_cfg() -> SimConfig:
    return SimConfig(poll_tick=1_000, host_step_cost=5_000,
                     service_base=20_000, service_jitter=2_000,
                     service_per_byte=4, poller_idle_timeout=10_000_000)


def run_bench(mode: str, seed: int = 7) -> dict:
    """mode: blocking | pipelined | blocking_alt | pipelined_alt.

    The stream workload writes 64 half-KiB chunks and flushes; alternation
    reads each chunk back before producing the next, which serializes both
    engines into the same op sequence.
    """
    if mode not in ("blocking", "pipelined", "blocking_alt", "pipelined_alt"):
        raise ValueError(f"unknown bench mode {mode}")
    cfg = _bench_cfg()
    sim = Simulation(cfg=cfg, seed=seed, manifest="/bench/\n")
    sim.add_host_task(period=200_000, budget=100_000)
    result: dict = {}
    chunk = bytes((seed + i) & 0xFF for i in range(_BENCH_CHUNK))
    alternate = mode.endswith("_alt")
    pipelined = mode.startswith("pipelined")

    def factory(rt):
        def body():
            shim = PosixShim(rt)
            fd = yield from shim.open("/bench/out.bin", create=True)
            assert fd >= 0, f"bench open failed: {fd}"
            t0 = rt.now()
            for i in range(_BENCH_CHUNKS):
                yield ("compute", _BENCH_COMPUTE)
                if pipelined:
                    r = yield from shim.write(fd, chunk)
                else:
                    r = yield from sync_call(
                        rt, async_write(rt, fd, chunk, i * _BENCH_CHUNK), None)
                assert r == _BENCH_CHUNK, f"bench write failed: {r}"
                if alternate:
                    if pipelined:
                        rc = yield from shim.flush(fd)
                        assert rc == 0
                    back = yield from shim.read(fd, _BENCH_CHUNK,
                                                i * _BENCH_CHUNK)
                    assert back == chunk, "alternation readback mismatch"
            rc = yield from shim.flush(fd)
            assert rc == 0, f"bench flush failed: {rc}"
            result["elapsed"] = rt.now() - t0
            result["ops"] = sim.host.serviced
            while True:
                yield ("yield",)

        return body()

    sim.spawn_enclave("bench", 200_000, 100_000, factory,
                      env={INIT_SHM_ENV: "262144"}, priority=5)
    sim.run_until(200_000_000)
    sim.close()
    if "elapsed" not in result:
        raise RuntimeError(f"bench {mode} never finished")
    nbytes = _BENCH_CHUNKS * _BENCH_CHUNK
    return {"mode": mode, "elapsed_ns": result["elapsed"], "bytes": nbytes,
            "host_ops": result["ops"],
            "ns_per_byte": round(result["elapsed"] / nbytes, 3)}


# --- hardened-interface fuzzer ---

FUZZ_EPOCH = 5_000  # run_fuzz iterations per fresh Simulation


def run_fuzz(seed: int, iterations: int, cfg: SimConfig | None = None) -> dict:
    """Random hostile interleavings against one ring handle.

    Each hardened call is bracketed by monitor marks; the measured number of
    shared-memory accesses must stay within the declared static bound no
    matter what was scribbled into the rings. The monitor also audits every
    access against the owner's legitimate windows and the world bit.

    Every FUZZ_EPOCH iterations start on a fresh Simulation: once a
    scribbled SQ tail lets the host's head pass the enclave's tail, each
    host drain consumes phantom entries and the SQ looks full for good.
    `submitted` counts prep_and_submit calls, `published` those that went out.
    """
    cfg = cfg or SimConfig(sq_entries=16, cq_entries=16)
    bounds = step_bounds(cfg)
    maxima: dict[str, int] = {}
    breaches: list[tuple] = []
    violations = submitted = published = 0
    rng = random.Random(seed)

    def idle_factory(rt):
        def body():
            while True:
                yield ("yield",)
        return body()

    def measured(name: str, fn) -> None:
        mark = mon.mark()
        fn()
        used = mon.delta(mark)
        if used > maxima.get(name, 0):
            maxima[name] = used
        if used > bounds[name]:
            breaches.append((name, used, bounds[name]))

    for epoch in range(0, iterations, FUZZ_EPOCH):
        sim = Simulation(cfg=cfg, seed=seed)
        rt = sim.spawn_enclave("fuzzee", 100_000, 50_000, idle_factory)
        handle = rt.handle
        host_sq, host_cq = sim.host.rings["fuzzee"]
        sq_win, cq_win = sim.host.scribble_targets[:2]

        # one honestly granted shared block for translated submission traffic
        pages = sim.authority.alloc_pages(4, "proxy", NORMAL, "shm")
        rid = 900_001
        sim.authority.register_shared(pages, rid, 4 * 4096)
        pm = sim.authority.map_region(sim.host.proxy_space, rid)
        enclave_base = sim.kernel.attach_shared(handle._space, rid, 4 * 4096)
        handle.insert_translation(TranslationEntry(enclave_base, pm.base, 4 * 4096))

        mon = sim.authority.monitor
        for space in sim.authority.spaces:
            mon.allowed[space.owner] = [(m.base, m.size) for m in space.mappings()]
        receipts: list[int] = []
        next_tag = 1

        mon.arm()
        for i in range(min(FUZZ_EPOCH, iterations - epoch)):
            roll = rng.randrange(100)
            if roll < 18:
                measured("peek_cqe", handle.peek_cqe)
            elif roll < 26:
                if handle._front is not None:
                    measured("consume_cqe", handle.consume_cqe)
            elif roll < 34:
                measured("cq_backlog", handle.cq_backlog)
            elif roll < 56:
                args = SqeArgs(fd=3, addr=enclave_base + rng.randrange(4096),
                               len=rng.randrange(1, 64), off=0)
                next_tag += 1

                def _sub(a=args, t=next_tag):
                    nonlocal submitted, published
                    submitted += 1
                    try:
                        receipt = handle.prep_and_submit(ringmod.OP_READ, a, t)
                    except Untranslatable:
                        return
                    if receipt is None:
                        handle.retire_tag(t)  # private only: unpark, no backlog
                    else:
                        published += 1
                        receipts.append(receipt)
                measured("prep_and_submit", _sub)
            elif roll < 64:
                def _tr():
                    try:
                        handle.translate_addr(rng.randrange(1 << 22))
                    except Untranslatable:
                        pass
                measured("translate_addr", _tr)
            elif roll < 68:  # the tags are no promises: deliver to nowhere
                measured("reap", lambda: handle.reap(cfg.max_events, lambda c: None))
            elif roll < 78:
                # host side drains SQ and answers a known or junk id
                host_sq.consume_batch(cfg.host_batch)
                if receipts and rng.random() < 0.7:
                    ud = receipts[rng.randrange(len(receipts))]
                else:
                    ud = (1 << 63) | rng.getrandbits(62)
                host_cq.produce(Cqe(ud, rng.randrange(-30, 70), 0))
            elif roll < 92:
                win = sq_win if rng.random() < 0.5 else cq_win
                off = rng.randrange(win.length)
                n = min(rng.randrange(1, 9), win.length - off)
                win.write(off, bytes(rng.getrandbits(8) for _ in range(n)))
            else:
                if receipts:
                    handle.retire(receipts.pop(rng.randrange(len(receipts))))
                try:
                    handle.consume_cqe() if handle._front else None
                except EmptyConsume:
                    pass
        mon.disarm()
        violations += len(mon.violations)
        sim.close()
    return {
        "iterations": iterations,
        "seed": seed,
        "bound_breaches": breaches,
        "monitor_violations": violations,
        "maxima": {k: maxima[k] for k in sorted(maxima)},
        "bounds": {k: bounds[k] for k in sorted(bounds)},
        "submitted": submitted,
        "published": published,
        "ok": not breaches and not violations,
    }


# --- reports ---

def report_lines(kind: str, seed: int, rows: list[dict]) -> list[str]:
    head = {"schema": 1, "kind": kind, "seed": seed, "count": len(rows)}
    dump = lambda d: json.dumps(d, sort_keys=True, separators=(",", ":"))
    return [dump(head)] + [dump(r) for r in rows]


def write_report(path: str, kind: str, seed: int, rows: list[dict]) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(report_lines(kind, seed, rows)) + "\n")
