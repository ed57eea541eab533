"""The benchmark's workloads: inputs, job command lines and output checks.

A workload's job runs one part after another; each part is one of the four
jobs the benchmark was designed around (led-global, rows-local,
joint-verify, joint-wide).  Parts are paired into two workloads, one per
family of hot paths, so that each run can last long enough to average over
the host's speed swings (README.md has the measurements).

Inputs depend only on the workload seed and the job index.  Every job gets
a fresh input (a new forest seed, or a new joint distribution), so a cache
kept across calls cannot make the in-process loop look faster than separate
CLI runs would be.  The checks test identities that hold whatever way the
engine computes, never the engine's own intermediate values.
"""

import hashlib
import json
import math
import os
from collections import Counter

LOG2_10 = math.log2(10)


def job_seed(part: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{part}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


class Job:
    """One closed-loop job: CLI commands run back to back, one report each.

    `parts` names the part that each command belongs to.  Paths are
    relative to the run's work directory.
    """

    def __init__(self, index, commands, reports, inputs, parts=None):
        self.index = index
        self.commands = commands
        self.reports = reports
        self.inputs = inputs
        self.parts = parts

    def input_sha256(self) -> str:
        """Hash of the command lines and the content of every input file."""
        h = hashlib.sha256(json.dumps(self.commands).encode())
        for path in self.inputs:
            with open(path, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()


class Part:
    """Base: subclasses define `job` and `check`; `setup` makes shared inputs."""

    name = ""
    shared_inputs = ()

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def setup(self, data) -> None:
        """Write inputs shared by every job (run in the work directory)."""

    def job_seed(self, index: int) -> int:
        return job_seed(self.name, self.seed, index)

    def job(self, data, index: int) -> Job:
        raise NotImplementedError

    def check(self, job: Job, reports: list) -> str | None:
        """None when every report holds its identities, else the first failure."""
        raise NotImplementedError


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


class LedGlobal(Part):
    """Importance against K on the 10-row LED population (many tiny trees)."""

    name = "led-global"

    @property
    def trees(self) -> int:
        return 20 if self.tiny else 600

    def job(self, data, index):
        out = f"global-{index}.json"
        argv = ["global", "--data", "led", "--k-sweep", "1..7",
                "--trees", str(self.trees), "--seed", str(self.job_seed(index)),
                "--format", "json", "--out", out]
        return Job(index, [argv], [out], [])

    def check(self, job, reports):
        per_k = reports[0]["results"]["per_k"]
        if [entry["k"] for entry in per_k] != list(range(1, 8)):
            return "k sweep is not 1..7"
        for entry in per_k:
            # leaves are pure, so the scores sum to H(digit) = log2 10
            if not _close(math.fsum(entry["scores"]), LOG2_10, 1e-9):
                return f"k={entry['k']}: scores sum to {math.fsum(entry['scores'])!r}"
        return None


class RowsLocal(Part):
    """Local MDI and Saabas for every row of a sampled LED dataset."""

    name = "rows-local"
    shared_inputs = ("rows.csv",)

    @property
    def rows(self) -> int:
        return 100 if self.tiny else 2000

    @property
    def trees(self) -> int:
        return 10 if self.tiny else 100

    def setup(self, data):
        dataset = data.led_sampled(self.rows, self.seed)
        data.write_csv(dataset, "rows.csv")
        self.labels = [int(v) for v in dataset.data[-1]]
        freq = Counter(self.labels)
        n = len(self.labels)
        self.prior = {c: k / n for c, k in freq.items()}
        self.h_y = -math.fsum(p * math.log2(p) for p in self.prior.values())

    def job(self, data, index):
        out = f"local-{index}.json"
        argv = ["local", "--data", "rows.csv", "--k", "1",
                "--method", "local-mdi,saabas", "--trees", str(self.trees),
                "--seed", str(self.job_seed(index)), "--format", "json",
                "--out", out]
        return Job(index, [argv], [out], ["rows.csv"])

    def check(self, job, reports):
        matrices = reports[0]["results"]["matrices"]
        if [m["method"] for m in matrices] != ["local-mdi", "saabas"]:
            return "expected a local-mdi and a saabas matrix"
        lm, sb = matrices
        n = len(self.labels)
        if lm["instance_ids"] != list(range(n)) or sb["instance_ids"] != list(range(n)):
            return "instance ids are not the training rows in order"
        for i, y in enumerate(self.labels):
            # pure leaves: each path drops the impurity from H(Y) to 0 ...
            if not _close(math.fsum(lm["scores"][i]), self.h_y, 1e-9):
                return f"row {i}: local MDI sums to {math.fsum(lm['scores'][i])!r}"
            # ... and lifts the probability of the true class from its prior to 1
            if sb["classes"][i] != y:
                return f"row {i}: predicted class {sb['classes'][i]}, label {y}"
            if not _close(math.fsum(sb["scores"][i]), 1.0 - self.prior[y], 1e-9):
                return f"row {i}: Saabas sums to {math.fsum(sb['scores'][i])!r}"
        return None


class JointVerify(Part):
    """The identity suite on a small random joint with an irrelevant feature."""

    name = "joint-verify"

    @property
    def p(self) -> int:
        return 3 if self.tiny else 6

    def job(self, data, index):
        joint = data.random_joint(self.job_seed(index), p=self.p, max_arity=2,
                                  zero_fraction=0.5, append_irrelevant=True)
        src, out = f"verify-{index}.csv", f"verify-{index}.json"
        data.write_joint_csv(joint, src)
        argv = ["verify", "--data", src, "--format", "json", "--out", out]
        return Job(index, [argv], [out], [src])

    def check(self, job, reports):
        if reports[0]["results"]["passed"] is not True:
            return "verify report does not pass"
        return None


class JointWide(Part):
    """Population MDI then exact Shapley values on a 12-feature joint."""

    name = "joint-wide"

    @property
    def p(self) -> int:
        return 4 if self.tiny else 12

    def job(self, data, index):
        joint = data.random_joint(self.job_seed(index), p=self.p, max_arity=2,
                                  append_irrelevant=False)
        src = f"wide-{index}.csv"
        pop, shap = f"wide-{index}-pop.json", f"wide-{index}-shapley.json"
        data.write_joint_csv(joint, src)
        return Job(index, [
            ["pop-mdi", "--data", src, "--format", "json", "--out", pop],
            ["shapley", "--data", src, "--format", "json", "--out", shap],
        ], [pop, shap], [src])

    def check(self, job, reports):
        scores = reports[0]["results"]["importances"][0]["scores"]
        game = reports[1]["results"]["games"][0]
        payoffs = game["payoffs"]
        if len(scores) != self.p or len(payoffs) != self.p:
            return "expected one score and one payoff per feature"
        worst = max(abs(a - b) for a, b in zip(scores, payoffs))
        if worst > 1e-10:
            return f"population MDI and Shapley payoffs differ by {worst!r}"
        if not _close(math.fsum(payoffs), game["total"], 1e-9):
            return f"payoffs sum to {math.fsum(payoffs)!r}, total {game['total']!r}"
        return None


PARTS = {cls.name: cls for cls in (LedGlobal, RowsLocal, JointVerify, JointWide)}
# forest: tree growth, then per-instance traversal; joint: pointwise
# conditionals and the relevance scan, then subset marginals
WORKLOADS = {
    "forest": ("led-global", "rows-local"),
    "joint": ("joint-verify", "joint-wide"),
}


class Workload:
    """The parts of one workload, run back to back as one job."""

    def __init__(self, name: str, seed: int, tiny: bool = False):
        self.name = name
        self.parts = [PARTS[p](seed, tiny) for p in WORKLOADS[name]]
        self.shared_inputs = tuple(f for p in self.parts for f in p.shared_inputs)

    def setup(self, data) -> None:
        for part in self.parts:
            part.setup(data)

    def job(self, data, index: int) -> Job:
        jobs = [part.job(data, index) for part in self.parts]
        return Job(
            index,
            [argv for j in jobs for argv in j.commands],
            [r for j in jobs for r in j.reports],
            [f for j in jobs for f in j.inputs],
            [p.name for p, j in zip(self.parts, jobs) for _ in j.commands],
        )

    def check(self, job: Job, reports: list) -> str | None:
        """None when every part's reports hold, else the first failure."""
        for part in self.parts:
            mine = [r for r, name in zip(reports, job.parts) if name == part.name]
            error = part.check(job, mine)
            if error is not None:
                return f"{part.name}: {error}"
        return None


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    return Workload(name, seed, tiny)


def remove(paths) -> None:
    for path in paths:
        if os.path.exists(path):
            os.unlink(path)
