"""Chaos harness: run client x workload x fault matrices under drguard.

Usage::

    python -m repro.tools.chaos --seeds 4 --matrix small
    python -m repro.tools.chaos --seeds 2 --matrix full --verbose

Every run pairs a real client wrapped in a
:class:`~repro.resilience.faultinject.FaultInjectingClient` with a
workload, under ``guard_clients`` + ``cache_consistency`` + fragment
verification, and asserts the robustness contract:

* the run completes (no crash escapes the guard);
* output and exit code are identical to a native (no-runtime) run of
  the same program — the injected client bugs must not perturb the
  application;
* the expected resilience events actually fired (the fault was
  *exercised*, not dodged).

``--runtime`` switches to the drshield matrix: no client at all, the
faults target the *runtime's own* chokepoints (``runtime_raise:<site>``)
or plant errant stores / livelock (see
:class:`~repro.resilience.faultinject.RuntimeFaultPlan`).  The oracle
additionally asserts that the event stream replays exactly onto the
live stats and that the escalation ladder actually engaged.

The cells of the small matrices have golden digests in
``GOLDENS.json`` (see :mod:`repro.tools.matrix`), which pin their
cycles, output and event streams, escalation-ladder events included.

Exit status is non-zero if any run violates the contract.
"""

import argparse

from repro.asm import CodeBuilder, mem
from repro.core import RuntimeOptions
from repro.isa.registers import Reg
from repro.loader import Process
from repro.machine.interp import run_native
from repro.minicc import compile_source
from repro.resilience.faultinject import (
    FAULT_KINDS,
    RUNTIME_FAULT_KINDS,
    FaultInjectingClient,
    FaultPlan,
    RuntimeFaultPlan,
)
from repro.tools import matrix
from repro.tools.run import CLIENTS

# ------------------------------------------------------------------ workloads

LOOP_SRC = """
int main() {
    int i; int acc;
    acc = 0;
    for (i = 0; i < 400; i++) {
        acc = acc + i;
        if (acc > 10000) { acc = acc - 9000; }
    }
    print(acc);
    return 0;
}
"""

INDIRECT_SRC = """
int table[4];

int f0(int x) { return x + 1; }
int f1(int x) { return x * 2; }
int f2(int x) { return x - 3; }
int f3(int x) { return x ^ 21; }

int main() {
    int i; int acc; int f;
    table[0] = &f0;
    table[1] = &f1;
    table[2] = &f2;
    table[3] = &f3;
    acc = 1;
    for (i = 0; i < 300; i++) {
        f = table[i & 3];
        acc = f(acc) & 0xFFFF;
    }
    print(acc);
    return 0;
}
"""

SIGNAL_SRC = """
int ticks;

int on_alarm() {
    ticks++;
    if (ticks < 5) { alarm(200); }
    sigreturn;
    return 0;
}

int churn(int n) {
    int j; int acc;
    acc = n;
    for (j = 0; j < 20; j++) { acc = (acc + j) & 0xFFFF; }
    return acc;
}

int mix(int n) {
    int j; int acc;
    acc = n;
    for (j = 0; j < 20; j++) { acc = (acc ^ j) + 1; }
    return acc & 0xFFFF;
}

int main() {
    int i;
    sighandler(&on_alarm);
    alarm(200);
    i = 0;
    while (ticks < 5) { i = churn(i); i = mix(i); }
    print(ticks);
    return 0;
}
"""


def build_smc_image():
    """Self-modifying workload: iteration 6 patches the immediate of
    the emitting ``mov`` from ``0x1000041`` ('A') to ``0x1000042``
    ('B'), so the output is AAAAAAA then BBBBB (7 + 5).  The high bits
    pin the encoder to the imm32 form, keeping the patched bytes at a
    known offset before ``patch_end``."""
    b = CodeBuilder(base=0x1000)
    b.label("main")
    b.mov(Reg.ESI, 0)
    b.label("loop")
    b.call("fn_emit")
    b.cmp(Reg.ESI, 6)
    b.jnz("skip")
    b.mov(Reg.ECX, b.label_address("patch_end"))
    b.sub(Reg.ECX, 4)
    b.mov(Reg.EDX, 0x1000042)
    b.mov(mem(base=Reg.ECX), Reg.EDX)
    b.label("skip")
    b.add(Reg.ESI, 1)
    b.cmp(Reg.ESI, 12)
    b.jnz("loop")
    b.mov(Reg.EAX, 1)
    b.mov(Reg.EBX, 0)
    b.syscall()
    b.label("fn_emit")
    b.mov(Reg.EBX, 0x1000041)
    b.label("patch_end")
    b.mov(Reg.EAX, 2)
    b.syscall()
    b.ret()
    code, labels = b.assemble()
    patch_at = labels["patch_end"] - 4 - 0x1000
    imm = int.from_bytes(code[patch_at : patch_at + 4], "little")
    assert imm == 0x1000041, "encoder moved the patch site (imm=%#x)" % imm
    return b.image(entry="main")


def workload_images():
    return {
        "loop": compile_source(LOOP_SRC),
        "indirect": compile_source(INDIRECT_SRC),
        "signal": compile_source(SIGNAL_SRC),
        "smc": build_smc_image(),
    }


# ------------------------------------------------------------------- matrices

SMALL_CLIENTS = ("rlr", "inc2add", "ctrace")
FULL_CLIENTS = ("rlr", "inc2add", "ctrace", "ibdisp", "null")

# Fault kind (client or runtime) -> workloads that exercise it.
# mid_trace_signal and mid_fragment_signal need a signal-delivering
# program; smc_write needs the self-modifying one.
def fault_workloads(kind, size):
    if kind in ("mid_trace_signal", "mid_fragment_signal"):
        return ("signal",)
    if kind == "smc_write":
        return ("smc",)
    if size == "small":
        return ("loop", "indirect")
    return ("loop", "indirect", "signal")


# Event kinds that must appear for each fault kind (the fault actually
# fired) — checked against the observer's aggregate counts.
EXPECTED_EVENTS = {
    "raise_in_hook": ("client_fault", "fragment_bailout"),
    "corrupt_instrlist": ("client_fault", "fragment_bailout"),
    "hook_budget_burn": ("client_fault", "fragment_bailout"),
    "cache_poison": ("client_fault", "fragment_bailout"),
    "mid_trace_signal": ("client_fault", "signal_delivered"),
    "smc_write": ("smc_invalidate",),
    "detach": ("detach",),
    "reattach": ("detach", "reattach"),
    "mid_fragment_signal": ("signal_delivered",),
}

# Kinds exercising the drdetach machinery: run under precise
# interrupts so state translation and mid-fragment delivery are
# actually on the path, not just fragment-boundary rollback.
DETACH_KINDS = ("detach", "reattach", "mid_fragment_signal")


def client_options(fault_kind):
    options = RuntimeOptions(
        guard_clients=True,
        client_fault_limit=3,
        client_hook_budget=200000,
        cache_consistency=True,
        verify_fragments=True,
        verify_equivalence=True,
        trace_events=True,
        trace_buffer=None,
    )
    if fault_kind in ("mid_trace_signal", "smc_write"):
        # Make traces (and therefore trace hooks / stitched-span
        # invalidation) happen early in these short programs.
        options.trace_threshold = 3
    if fault_kind in DETACH_KINDS:
        options.precise_interrupts = True
    return options


def fault_exercised(runtime, result):
    """The injected fault fired and was caught where its kind says."""
    client = runtime.client
    kind = client.plan.kind
    problems = matrix.events_fired(*EXPECTED_EVENTS[kind])(runtime, result)
    if kind not in ("smc_write", "mid_fragment_signal") and not client.injected:
        problems.append("fault plan never fired")
    # The point of mid_fragment_signal: at least one alarm must have
    # been taken *inside* a fragment via the translation table, not at
    # a fragment boundary.
    if kind == "mid_fragment_signal" and not any(
        ev.kind == "signal_delivered" and ev.data.get("mid_fragment")
        for ev in runtime.observer.events()
    ):
        problems.append("no mid-fragment signal delivery")
    # drequiv negative control: these faults corrupt instruction lists
    # semantically, so beyond the guard's dynamic bailout the
    # equivalence rule must have flagged them *statically* at emit.
    if kind in ("corrupt_instrlist", "cache_poison") and client.injected and not any(
        d.is_error and d.rule == "equivalence"
        for d in runtime.verifier_diagnostics
    ):
        problems.append(
            "injected %s was never flagged by the equivalence rule" % kind
        )
    return problems


def client_cell(image, workload, client_name, fault_kind, seed):
    label = "%-16s %-8s %-7s seed=%d" % (fault_kind, workload, client_name, seed)
    return matrix.Cell(
        label,
        image,
        client_options(fault_kind),
        client=lambda: FaultInjectingClient(
            FaultPlan(fault_kind, seed), inner=CLIENTS[client_name]()
        ),
        oracles=(fault_exercised,),
        golden=matrix.golden_key("chaos", label),
    )


def run_one(image, client_name, fault_kind, seed):
    """One chaos run; returns (ok, detail_string, result)."""
    cell = client_cell(image, "-", client_name, fault_kind, seed)
    problems, _, result = matrix.run_cell(cell, run_native(Process(image)))
    return not problems, "; ".join(problems) or "ok", result


# ------------------------------------------------- drshield matrix (--runtime)

# Kinds whose chokepoint only runs under cache pressure: give them a
# small cache so evict/unlink are actually invoked in every workload.
PRESSURE_KINDS = ("runtime_raise:evict", "runtime_raise:unlink")


def shield_options(**overrides):
    settings = dict(
        shield=True,
        trace_events=True,
        trace_buffer=None,
        precise_interrupts=True,
        trace_threshold=3,
        chain_threshold=3,
    )
    settings.update(overrides)
    return RuntimeOptions(**settings)


def ladder_engaged(runtime, result):
    problems = []
    if runtime.rguard.injected == 0:
        problems.append("runtime fault plan never fired")
    if runtime.rguard.plan.kind == "livelock":
        # Livelock produces no internal exception, so no shield_fault;
        # the watchdog must have broken the loop instead.
        if not runtime.stats.watchdog_trips:
            problems.append("livelock never tripped the watchdog")
    elif not runtime.stats.shield_faults:
        problems.append("fault injected but no shield_fault recorded")
    return problems


def runtime_cell(image, workload, fault_kind, seed):
    # Trace finalization only runs a handful of times in these short
    # workloads, so the plan must start at the first one to be
    # guaranteed to fire; the period still varies with the seed.
    start = 1 if fault_kind == "runtime_raise:trace" else None
    options = shield_options()
    if fault_kind in PRESSURE_KINDS:
        options.code_cache_limit = 256
    if fault_kind == "runtime_raise:evict":
        options.cache_evict_policy = "fifo"

    def arm(runtime):
        runtime.rguard.plan = RuntimeFaultPlan(fault_kind, seed, start=start)

    label = "%-22s %-8s seed=%d" % (fault_kind, workload, seed)
    return matrix.Cell(
        label,
        image,
        options,
        setup=arm,
        oracles=(ladder_engaged, matrix.replay_exact),
        golden=matrix.golden_key("chaos --runtime", label),
    )


# ---------------------------------------------------------------------- CLI

def cells(args):
    """The matrix selected by ``args``, in run order."""
    images = workload_images()
    if args.runtime:
        kinds = (args.fault,) if args.fault else RUNTIME_FAULT_KINDS
        return [
            runtime_cell(images[workload], workload, kind, seed)
            for kind in kinds
            for workload in fault_workloads(kind, args.matrix)
            for seed in range(args.seeds)
        ]
    clients = SMALL_CLIENTS if args.matrix == "small" else FULL_CLIENTS
    kinds = (args.fault,) if args.fault else FAULT_KINDS
    return [
        client_cell(images[workload], workload, client_name, kind, seed)
        for kind in kinds
        for workload in fault_workloads(kind, args.matrix)
        for client_name in clients
        for seed in range(args.seeds)
    ]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=4, help="seeds per cell")
    parser.add_argument(
        "--matrix", default="small", choices=["small", "full"],
        help="small: 3 clients, 2 workloads/fault; full: 5 clients, 3 workloads",
    )
    parser.add_argument(
        "--fault",
        choices=FAULT_KINDS + RUNTIME_FAULT_KINDS,
        help="restrict to one fault kind",
    )
    parser.add_argument(
        "--runtime", action="store_true",
        help="run the drshield runtime-fault matrix (no client; faults "
        "target the runtime's own chokepoints) instead of the client matrix",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.fault:
        pool = RUNTIME_FAULT_KINDS if args.runtime else FAULT_KINDS
        if args.fault not in pool:
            parser.error(
                "--fault %s does not belong to the %s matrix"
                % (args.fault, "runtime" if args.runtime else "client")
            )
    return args


def main(argv=None):
    args = parse_args(argv)
    summary = "%s: {runs} runs, {failures} failures (%s matrix, %d seeds)" % (
        "chaos --runtime" if args.runtime else "chaos",
        args.matrix,
        args.seeds,
    )
    return matrix.run(cells(args), summary, verbose=args.verbose)


if __name__ == "__main__":
    raise SystemExit(main())
