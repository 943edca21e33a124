"""crossnav benchmark: one workload, timed passes, checked outputs, one JSON line.

Run from the root of a checkout:

    python3 bench/run.py --workload study --seed 0 --seconds 35 --trace 0

Each workload is a fixed set of (scenario, condition, seed) episodes (see
README.md). A run times one cold set-up, then repeats passes over the set
one after another in this process while the next pass would end within
half a pass of ``--seconds``. Between episodes it times a fixed reference
loop, and scales the passes' mean time by the loop's mean time over them,
so that the host's drifting speed cancels out of ``norm_wall_s`` and
``norm_sim_rate``. With ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics instead. The last line of
standard output is the JSON result.
"""

import time

_T_TOP = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# numpy's OpenBLAS would otherwise start one thread per core; the program is
# single-threaded, and one thread keeps the run from competing with itself
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

#: the paper's protocol at its first seeds; the claims checked on the study
#: are means over these (see README.md for why they do not follow --seed)
STUDY_SEEDS = (0, 1, 2)
#: seeds per pass of the workloads whose seeds follow --seed
OVERRIDE_SEEDS = 10
WALKER_SEEDS = 100

#: nominal seconds of one reference loop, the scale of the normalised times:
#: about the loop's mean on a 2-core 2.1 GHz Xeon VM, so there
#: ``norm_wall_s`` reads close to the host seconds of a pass
REF_LOOP_S = 0.017
#: host seconds of episodes between reference-loop samples (about 7% overhead)
REF_EVERY_S = 0.2


def ref_loop(arrays, n: int = 50_000) -> float:
    """Fixed work to time the host by: interpreter work, then array passes.

    The program spends its time in both, and the host's slow spells slow
    the two by different shares, so the loop holds both: about two thirds
    of its time in the interpreter (float arithmetic, a small dict), one
    third in numpy over ``arrays`` (1.4 MB, like a few depth frames).
    """
    import numpy as np

    acc = 0.0
    seen = {}
    for i in range(n):
        x = (i * 0.5) % 7.0
        acc += x * x - acc * 1e-6
        seen[i & 255] = acc
    for _ in range(20):
        d = np.maximum(arrays[0] * 0.5 - arrays[1], arrays[2] * 0.25)
        np.minimum(d, 1.0, out=d)
        acc += float(d.sum())
    return acc


class RefClock:
    """Samples of the reference loop's time, taken between episodes.

    ``due`` takes one sample per ``REF_EVERY_S`` of episode time since the
    last sample, so the samples spread evenly over a pass whatever the
    length of its episodes.
    """

    def __init__(self):
        import numpy as np

        self.samples = []
        self._owed = 0.0
        self._arrays = np.random.default_rng(0).normal(size=(3, 60_000))

    def sample(self) -> None:
        t0 = time.perf_counter()
        ref_loop(self._arrays)
        self.samples.append(time.perf_counter() - t0)

    def due(self, episode_s: float) -> None:
        self._owed += episode_s
        while self._owed >= REF_EVERY_S:
            self._owed -= REF_EVERY_S
            self.sample()

    def take(self):
        samples, self.samples = self.samples, []
        return samples


def _since_process_start() -> float:
    """Seconds from this process's start to now, at clock-tick resolution; 0 where unknown."""
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(time.clock_gettime(time.CLOCK_BOOTTIME) - started, 0.0)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("study", "override", "walker"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_crossnav():
    """Import the package from this checkout's ``src``, or exit non-zero."""
    try:
        import crossnav
        from crossnav import geometry, harness, human_branch, sim
    except ImportError as exc:
        sys.exit(f"cannot import crossnav from {ROOT / 'src'}: {exc}")
    if Path(crossnav.__file__).resolve().parent != (ROOT / "src" / "crossnav").resolve():
        sys.exit(f"crossnav imported from {crossnav.__file__}, not from this checkout")
    return geometry, harness, human_branch, sim


class Workload:
    """The episodes of one workload and how one pass runs them."""

    def __init__(self, name, seed, harness, sim):
        self.name = name
        self.harness = harness
        self.sim = sim
        cond = sim.Condition
        if name == "study":
            self.episodes = [
                ("canonical", c, s)
                for c in (cond.UNASSISTED, cond.SINGLE_VIEW, cond.CROSS_VIEW)
                for s in STUDY_SEEDS
            ] + [("canonical_bend", cond.CROSS_VIEW, s) for s in STUDY_SEEDS]
        elif name == "override":
            seeds = range(seed * OVERRIDE_SEEDS, (seed + 1) * OVERRIDE_SEEDS)
            self.episodes = [("hanging_lamp", cond.CROSS_VIEW, s) for s in seeds]
        else:
            seeds = range(seed * WALKER_SEEDS, (seed + 1) * WALKER_SEEDS)
            self.episodes = [("canonical", cond.UNASSISTED, s) for s in seeds]
        self.scenarios = sorted({e[0] for e in self.episodes})
        self.out_dir = ROOT / ".bench_out" / f"{name}-{os.getpid()}"
        self.configs = {}

    def set_up(self):
        """Load and validate the workload's scenarios (looked up at call time, so traceable)."""
        self.configs = {name: self.harness.load_scenario(name) for name in self.scenarios}

    def run_episode(self, scenario, condition, seed):
        """Run one episode: the study through ``run_sweep`` with one job, the others directly."""
        if self.name == "study":
            spec = self.harness.SweepSpec(scenario, (condition,), (seed,), str(self.out_dir), jobs=1)
            (report,) = self.harness.run_sweep(spec)
            return report
        return self.sim.run_episode(self.configs[scenario], condition, seed, self.out_dir)

    def run_pass(self, ref: RefClock):
        """Run every episode once, sampling ``ref`` between episodes.

        Returns ({(scenario, condition, seed): report}, episode wall s, episode CPU s);
        the times leave out the reference samples.
        """
        out, wall, cpu = {}, 0.0, 0.0
        for scenario, condition, seed in self.episodes:
            c0, w0 = time.process_time(), time.perf_counter()
            out[(scenario, condition.value, seed)] = self.run_episode(scenario, condition, seed)
            w = time.perf_counter() - w0
            wall, cpu = wall + w, cpu + time.process_time() - c0
            ref.due(w)
        return out, wall, cpu


def remove_out_dir(out_dir: Path) -> None:
    """Delete this run's traces, and ``.bench_out`` itself once no run uses it."""
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        out_dir.parent.rmdir()
    except OSError:
        pass


def digests(reports):
    return {
        key: hashlib.sha256(Path(r.trace_path).read_bytes()).hexdigest() for key, r in reports.items()
    }


def check_outputs(workload, reports, pass_digests, checks_mod, yaml_docs):
    """Read each trace of the last pass once and run every output check on it.

    Returns (failures, ends, kept): ``ends[key]`` is (last time stamp, row
    count) of each trace, and ``kept`` holds the texts the later checks
    need: every study trace, else each scenario's first trace.
    """
    fails, ends, kept = [], {}, {}
    for key in sorted(reports):
        text = Path(reports[key].trace_path).read_text()
        cfg = workload.configs[key[0]]
        msgs = checks_mod.check_trace(
            text, yaml_docs[key[0]], cfg.sim.dt, cfg.sim.goal_tolerance_m, reports[key]
        )
        if workload.name == "walker":
            msgs += checks_mod.robot_never_moves(text)
        fails += [f"{key}: {m}" for m in msgs]
        lines = text.rstrip("\n").split("\n")
        ends[key] = (float(lines[-1].split(",", 1)[0]), len(lines) - 1)
        if workload.name == "study" or all(k[0] != key[0] for k in kept):
            kept[key] = text
    if workload.name == "study":
        fails += checks_mod.check_study(reports, kept)
    elif workload.name == "override":
        fails += checks_mod.check_override(pass_digests, kept[min(kept)], yaml_docs["hanging_lamp"])
    return fails, ends, kept


def depth_check(workload, texts, seed, checks_mod, sim, yaml_docs) -> list:
    """render_depth against the scalar cast at robot, upright-chest and bent-chest poses.

    Poses come from four rows spread over each scenario's first trace; 64
    pixels per frame, half of them on rendered hits.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 7])
    fails = []
    for scenario in workload.scenarios:
        config = workload.configs[scenario]
        obstacles = yaml_docs[scenario]["scene"]["obstacles"]
        tr = checks_mod.Trace(texts[min(k for k in texts if k[0] == scenario)])
        rows = np.linspace(0, len(tr.rows) - 1, 4).round().astype(int)
        cols = {n: tr.floats(n) for n in ("robot_x", "robot_y", "robot_theta", "human_x", "human_y")}
        rig = config.rig
        for i in rows.tolist():
            robot = np.array([cols["robot_x"][i], cols["robot_y"][i], cols["robot_theta"][i]])
            hx, hy = cols["human_x"][i], cols["human_y"][i]
            # the follower faces the robot
            human = np.array([hx, hy, np.arctan2(robot[1] - hy, robot[0] - hx)])
            cameras = [("robot", sim.robot_camera_pose(robot, rig), rig.robot_intrinsics)]
            for bend in (sim.BendPose.UPRIGHT, sim.BendPose.BENT):
                pose = sim.chest_camera_pose(human, bend, rig, config.scene.chest_height_m)
                cameras.append((f"chest {bend.value}", pose, rig.chest_intrinsics))
            for label, pose, intr in cameras:
                img = sim.render_depth(config.scene, pose, intr)
                pixels = checks_mod.sample_pixels(img.depth, rng, 64)
                for msg in checks_mod.compare_depth(img.depth, obstacles, pose, intr, pixels):
                    fails.append(f"depth {scenario} row {i} {label}: {msg}")
    return fails


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("--seconds must be positive")
    pre_top = _since_process_start() - (time.perf_counter() - _T_TOP)
    geometry, harness, human_branch, sim = import_crossnav()
    import yaml

    import checks
    import tracer as tracer_mod

    workload = Workload(args.workload, args.seed, harness, sim)
    trace = tracer_mod.Tracer(tracer_mod.targets(sim, harness, geometry, human_branch))
    if args.trace:
        trace.install()
    workload.set_up()
    setup_s = max(pre_top, 0.0) + time.perf_counter() - _T_TOP
    trace.uninstall()
    setup_spans = trace.take()
    yaml_docs = {
        name: yaml.safe_load(harness.find_scenario(name).read_text()) for name in workload.scenarios
    }

    fails = []
    attempted = failed = 0
    first_digests = reports = None
    untraced = []  # (wall s, cpu s, reference-loop samples) per untraced pass
    traced = []  # (wall s, spans) per traced pass
    ref = RefClock()
    start = time.perf_counter()
    try:
        while True:
            for traced_pass in (False, True) if args.trace else (False,):
                ref.sample()  # at least one sample per pass, however short
                if traced_pass:
                    trace.install()
                try:
                    pass_reports, wall, cpu = workload.run_pass(ref)
                except Exception as exc:  # a failed pass counts all its episodes
                    pass_reports = None
                    print(f"pass raised {type(exc).__name__}: {exc}", file=sys.stderr)
                finally:
                    trace.uninstall()
                attempted += len(workload.episodes)
                spans = trace.take()
                ref_samples = ref.take()
                if pass_reports is None:
                    failed += len(workload.episodes)
                    continue
                reports = pass_reports
                pass_digests = digests(reports)
                if first_digests is None:
                    first_digests = pass_digests
                elif pass_digests != first_digests:
                    kind = "traced" if traced_pass else "untraced"
                    fails.append(f"a {kind} pass wrote traces that differ from the first pass")
                if traced_pass:
                    traced.append((wall, spans))
                else:
                    untraced.append((wall, cpu, ref_samples))
            elapsed = time.perf_counter() - start
            per_round = elapsed / max(len(untraced) + len(traced), 1) * (2 if args.trace else 1)
            # start another round while it would end within half a round
            # of --seconds, so that a run measures --seconds on average
            if failed or elapsed + per_round / 2 > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        ends, trace_bytes = {}, 0
        if reports is not None:
            msgs, ends, kept = check_outputs(workload, reports, first_digests, checks, yaml_docs)
            fails += msgs + depth_check(workload, kept, args.seed, checks, sim, yaml_docs)
            trace_bytes = sum(Path(r.trace_path).stat().st_size for r in reports.values())
        tables = [tracer_mod.SpanTable(spans) for _, spans in traced]
        for table in tables:
            renders = len(table.select("render_depth"))
            want = checks.expected_renders(ends, workload.configs)
            if renders != want:
                fails.append(f"traced pass made {renders} render_depth calls, schedule implies {want}")
            steps = len(table.select("step"))
            rows = sum(n - 1 for _, n in ends.values())
            if steps != rows:
                fails.append(f"traced pass made {steps} physics steps, traces have {rows} steps")
        threads = _thread_count()
        if threads > (os.cpu_count() or 1):
            fails.append(f"{threads} threads on {os.cpu_count()} cores")
    finally:
        remove_out_dir(workload.out_dir)

    sim_s = sum(t for t, _ in ends.values())
    # a pass's time at the reference speed. The mean, not the median, of the
    # loop's samples: a pass's time sums its slow and fast spells alike
    ref_samples = [x for *_, r in untraced for x in r]
    norm_wall_s = (
        statistics.fmean(w for w, _, _ in untraced) * REF_LOOP_S / statistics.fmean(ref_samples)
        if untraced
        else 0.0
    )
    norm_walls = [w * REF_LOOP_S / statistics.fmean(r) for w, _, r in untraced]
    metrics = {}
    if untraced and args.trace:
        layer = tracer_mod.layer_metrics(
            tables, [w for w, _ in traced], tracer_mod.SpanTable(setup_spans)
        )
        layer["harness.trace_bytes"] = (trace_bytes, "bytes")
        layer["run.wall_s"] = (statistics.median(w for w, _, _ in untraced), "s")
        layer["run.cpu_s"] = (statistics.median(c for _, c, _ in untraced), "s")
        layer["run.ref_loop_ms"] = (statistics.fmean(ref_samples) * 1e3, "ms")
        overheads = [t / u - 1.0 for (t, _), (u, _, _) in zip(traced, untraced)]
        layer["run.trace_overhead"] = (statistics.median(overheads) if overheads else 0.0, "fraction")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    elif untraced:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "norm_wall_s": {"value": norm_wall_s, "unit": "s"},
            "norm_sim_rate": {"value": sim_s / norm_wall_s, "unit": "sim_s/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    for msg in fails[:20]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    if len(fails) > 20:
        print(f"... and {len(fails) - 20} more", file=sys.stderr)
    print(
        f"{args.workload}: {len(untraced) + len(traced)} passes, {attempted} episodes, "
        f"{failed} failed, {len(fails)} check failures; untraced pass s: "
        + " ".join(f"{w:.3f}" for w, _, _ in untraced)
        + "; each normalised: "
        + " ".join(f"{w:.3f}" for w in norm_walls)
        + "; traced pass s: "
        + " ".join(f"{w:.3f}" for w, _ in traced),
        file=sys.stderr,
    )
    result = {"correct": not fails, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def _thread_count() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 1


if __name__ == "__main__":
    sys.exit(main())
