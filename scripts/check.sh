#!/usr/bin/env sh
# Repo-wide hygiene gate: formatting, lints (warnings are errors), tests.
# Run from anywhere; operates on the workspace root.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q

echo "==> MPISIM_ENGINE=threads cargo test -q -p mpisim -p mpi-sections -p bench -p mpicheck"
# Thread-backed fibers with reversed clock ties: the code path a
# non-x86-64 host runs under either engine name, over the whole suite.
MPISIM_ENGINE=threads cargo test -q -p mpisim -p mpi-sections -p bench -p mpicheck
# Replay under an altered machine must equal a run on it on this engine too.
MPISIM_ENGINE=threads cargo test -q -p speedup-repro --test whatif_replay

echo "==> only fiber.rs knows the target architecture"
# No test pins it: an engine fork by architecture outside fiber.rs would
# compile and pass on this host, which runs one side of it only.
if grep -rn 'cfg(target_arch' crates/mpisim/src | grep -v '^crates/mpisim/src/fiber.rs:'; then
    echo "crates/mpisim/src: an engine fork by architecture is back outside fiber.rs"
    exit 1
fi

echo "==> fiber stacks come from the pooled reservation only"
# One allocation path: no heap-allocated stack and no after-the-fact
# canary may come back beside the guarded `StackPool`. Also pinned in
# tier-1, for the guard: `crates/mpisim/tests/stacks.rs`'
# `overflow_faults_at_the_guard_with_a_message` dies at the pool's guard
# page with its message. No test pins a second allocator used beside the
# pool, or a canary checked as well.
if grep -rn 'std::alloc\|STACK_CANARY' crates/mpisim/src/fiber.rs crates/mpisim/src/fiber; then
    echo "crates/mpisim/src/fiber*: a second stack allocator or a canary is back"
    exit 1
fi

echo "==> the communication log is indexed, never hashed"
# Sends are a dense row per sender, timeline cells a dense array, rounds
# a `FastMap`: SipHash per record is what `conv456_observed` used to pay.
# No test pins it: a hashed table gives the same numbers, only slower.
if grep -n 'HashMap' crates/core/src/waitstate.rs crates/core/src/critpath.rs \
    crates/core/src/timeline.rs; then
    echo "crates/core/src: a hashed lookup is back on the log's hot path"
    exit 1
fi

echo "==> tools take no lock per event; stacks are guarded without splitting the mapping"
# Every state holder in crates/core keeps its state in an
# `mpisim::WorldCell` (parking_lot stays a dependency for tests only, until
# ROADMAP 1(b) settles benchmark/Cargo.lock); a receive's step carries its
# message's departure, so the summarizer keeps nothing per message; and
# `mprotect` is the guard of the pre-`MADV_GUARD_INSTALL` fallback only.
# Also pinned in tier-1, for `mprotect(`: `crates/mpisim/tests/stacks.rs`'
# `a_world_past_the_split_guard_limit_runs_where_guards_install_in_place`
# runs past the split-mapping limit (where the kernel installs guards in
# place). No test pins the lock or the summarizer's map of messages:
# either would compile and pass.
if grep -rn '^use parking_lot' crates/core/src; then
    echo "crates/core/src: a lock is back on a tool's per-event path"
    exit 1
fi
if grep -n 'sends: FastMap' crates/core/src/summary.rs; then
    echo "crates/core/src/summary.rs: the summarizer keeps a map of messages in flight again"
    exit 1
fi
if grep -rn 'mprotect(' crates/mpisim/src | grep -v 'pub fn mprotect(\|Guards::Split'; then
    echo "crates/mpisim/src: a guard page is made outside the split-mapping fallback"
    exit 1
fi

echo "==> one implementation per concept: no deleted duplicate came back"
if grep -n 'criterion\|\[\[bench\]\]' Cargo.toml crates/*/Cargo.toml benchmark/Cargo.toml; then
    echo "Cargo.toml: a second measurement harness is back beside benchmark/"
    exit 1
fi
if grep -rn 'finish_read\|remaining_readers' crates/mpisim/src; then
    echo "crates/mpisim/src: a reader count is back beside the record's Arc"
    exit 1
fi
if grep -n 'fn value_dom' crates/mpisim/src/jsoncheck.rs; then
    echo "crates/mpisim/src/jsoncheck.rs: a second walker of the JSON grammar is back"
    exit 1
fi
if grep -rn 'find_deadlock\|completed_rounds\|InFlight' crates/mpicheck/src; then
    echo "crates/mpicheck/src: a second deadlock detector is back beside the scheduler's proof"
    exit 1
fi
if grep -rn 'collective mismatch' crates/mpisim/src; then
    echo "crates/mpisim/src: a second collective-order check is back beside the rendezvous diagnostic"
    exit 1
fi
if grep -n 'HashMap' crates/mpicheck/src/lib.rs; then
    echo "crates/mpicheck/src/lib.rs: hashed per-rank state is back in the race analyzer"
    exit 1
fi
# Property tests are plain seeded loops over `rand`'s `StdRng`: no second
# test harness and no second generator. No test pins either guard: a
# returning stand-in or a copied xoshiro256++ would compile and pass.
if [ -e crates/proptest-stub ] || grep -n 'proptest' Cargo.toml crates/*/Cargo.toml; then
    echo "Cargo.toml: the proptest stand-in is back beside plain seeded property loops"
    exit 1
fi
if grep -rn --include='*.rs' 'rotate_left(23)' crates src tests examples benchmark \
    | grep -v '^crates/rand-stub/'; then
    echo "a second xoshiro256++ is back outside crates/rand-stub"
    exit 1
fi

echo "==> a receive is one event and a collective's round is the engine's number"
# RecvMatched carries when its call returned and both collective events
# carry the rendezvous generation: no tool rebuilds either per rank. Also
# pinned in tier-1, for a round map kept in the tracker: `spine.rs`'
# `a_rank_tracker_keeps_no_receive_state_and_no_round_map` holds
# `size_of::<RankTracker>()` to its three scalar fields. No test pins
# `RecvBlocked`, `Posted {` or a receive record's `post_ns`.
if grep -rn 'RecvBlocked' crates src examples tests; then
    echo "crates|src|examples|tests: RecvBlocked is back beside the one receive event"
    exit 1
fi
if grep -n 'coll_rounds\|Posted {' crates/core/src/spine.rs; then
    echo "crates/core/src/spine.rs: the spine rebuilds a receive's post or a collective's round again"
    exit 1
fi
if grep -n 'post_ns: u64' crates/core/src/waitstate.rs; then
    echo "crates/core/src/waitstate.rs: a receive record stores its post beside its own time again"
    exit 1
fi

echo "==> a log record's head is one word"
# A rank's records sit inline in one vector of words: a head word, then
# the kind's payload. Also pinned in tier-1: the words-per-kind assertion of
# `waitstate.rs`' `packed_store_returns_what_was_pushed` and the 14.0-byte
# per-record bound of `crates/bench/tests/summary.rs`'
# `log_bytes_are_a_count_linear_in_the_records`.
if grep -n 'struct Head\|heads:' crates/core/src/waitstate.rs; then
    echo "crates/core/src/waitstate.rs: a separate record head is back beside the log's words"
    exit 1
fi

echo "==> a send slot names its record and repeats none of its facts"
# A send's time is its record's head, its destination and bytes the
# record's payload; the send table's slot is only the record's offset.
# Also pinned in tier-1: the exact 380 400 bytes per 50 steps at p = 64 of
# `crates/bench/tests/summary.rs`' `log_bytes_are_a_count_linear_in_the_records`.
if grep -n 'send_ns\|struct SendInfo' crates/core/src/waitstate.rs; then
    echo "crates/core/src/waitstate.rs: a send slot stores the send's time (or a SendInfo) again"
    exit 1
fi

echo "==> one open-section list per rank, kept by the section runtime"
# A section leave says which section the rank is in after it, so no spine
# tool keeps a stack of open frames, and section events carry no data blob.
# Also pinned in tier-1, for the tracker's `Vec`: `spine.rs`'
# `a_rank_tracker_keeps_no_receive_state_and_no_round_map` holds
# `size_of::<RankTracker>()` to its three scalar fields. No test pins
# `fn leave(` or the blob (`size_of::<MpiEvent>()` would still fit it).
if sed -n '/^pub(crate) struct RankTracker {/,/^}/p' crates/core/src/spine.rs | grep -n 'Vec<'; then
    echo "crates/core/src/spine.rs: RankTracker keeps a Vec again (the section runtime owns the open frames)"
    exit 1
fi
if grep -n 'fn leave(' crates/core/src/spine.rs; then
    echo "crates/core/src/spine.rs: the spine closes frames itself again (fn leave)"
    exit 1
fi
if sed -n '/^pub enum MpiEvent {/,/^}/p' crates/mpisim/src/event.rs | grep -n 'data: SectionData'; then
    echo "crates/mpisim/src/event.rs: a section event carries the tool data blob again"
    exit 1
fi

echo "==> one label table per process: events carry a Label, no spine interns text"
# A section event and a tool info name their section by `mpisim::Label`, an
# id into the process-wide table, so no spine keeps an interner and nothing
# clones an `Arc<str>` per event. Also pinned in tier-1:
# `crates/core/tests/two_worlds.rs`' `two_worlds_at_once_name_only_their_own_labels`
# (a spine's run index, not a text table) and `label.rs`'
# `two_threads_get_one_id_per_text`; `event.rs`' `event_time_accessor` builds
# both section events from `Label`s, and `EnterInfo`/`LeaveInfo` derive `Copy`,
# which an `Arc<str>` field would not compile under.
if grep -n 'Interner\|ADDRESS_PROBE\|Arc<str>' crates/core/src/spine.rs; then
    echo "crates/core/src/spine.rs: a label interner or an Arc<str> label is back in the spine"
    exit 1
fi
if sed -n '/^pub enum MpiEvent {/,/^}/p' crates/mpisim/src/event.rs | grep -n 'Arc<str>'; then
    echo "crates/mpisim/src/event.rs: a section event carries an Arc<str> label again"
    exit 1
fi
if grep -n 'Arc<str>' crates/core/src/tool.rs; then
    echo "crates/core/src/tool.rs: a tool info carries an Arc<str> label again"
    exit 1
fi

echo "==> no heap block per rank in the section runtime"
# A frame carries its section id, not its label, and its data blob lives out
# of line; a rank's slot is two words. Also pinned in tier-1 by the per-rank
# budget of `crates/bench/tests/section_state.rs`'
# `conv_holds_a_few_words_per_rank_in_the_section_runtime`.
for target in 'struct Frame {' 'struct RankSlot {'; do
    if ! grep -q "^$target" crates/core/src/section.rs; then
        echo "crates/core/src/section.rs: '$target' is gone; aim the guard below at its successor"
        exit 1
    fi
done
if sed -n '/^struct Frame {/,/^}/p' crates/core/src/section.rs | grep -n 'Arc<str>\|SectionData'; then
    echo "crates/core/src/section.rs: a frame carries its label or its data blob again"
    exit 1
fi
if sed -n '/^struct RankSlot {/,/^}/p' crates/core/src/section.rs | grep -n 'Vec<'; then
    echo "crates/core/src/section.rs: a rank's slot holds a Vec again (a heap block per rank)"
    exit 1
fi

echo "==> a rank suspends only where MPI blocks"
# A fiber suspends on a receive or a rendezvous, never to poll, so an empty
# ready heap with live ranks is the deadlock proof; and the public surface
# holds what a workload, figures, study, a checked example or the keep-list
# of DESIGN section 5 reaches. No test pins any of these: a poller state or
# an uncalled operation that came back would compile and pass, so each is
# guarded here alone.
if grep -n 'Polling\|park_poller' crates/mpisim/src/des.rs; then
    echo "crates/mpisim/src/des.rs: a poller state is back beside Blocked"
    exit 1
fi
if grep -n 'fn probe(\|fn test(' crates/mpisim/src/comm.rs; then
    echo "crates/mpisim/src/comm.rs: a non-blocking probe or test is back"
    exit 1
fi
if grep -n 'fn alltoall\|fn scan\|fn exscan\|fn reduce_scatter_block' crates/mpisim/src/comm.rs; then
    echo "crates/mpisim/src/comm.rs: a collective nothing calls is back"
    exit 1
fi
if grep -n 'Pcontrol' crates/mpisim/src/event.rs; then
    echo "crates/mpisim/src/event.rs: the Pcontrol event is back"
    exit 1
fi
if grep -rn 'HistogramTool' crates; then
    echo "crates: HistogramTool is back beside QuantileSketch"
    exit 1
fi

echo "==> the event vocabulary holds what a tool reads: no call-bracket events"
# No tool read `CallExit`, and `CallEnter` fed only pvar's collective count,
# which the spine's collective-exit step carries. Also pinned by the
# compiler: `MpiEvent::{CallEnter, CallExit}`, `MpiCall` and
# `Proc::tool_call_{enter,exit}` are gone, so code that names them no longer
# compiles; this guard catches their definitions coming back.
if grep -rn 'CallEnter\|CallExit\|MpiCall\|tool_call_' crates src examples tests; then
    echo "crates|src|examples|tests: a call-bracket event (CallEnter, CallExit, MpiCall, tool_call_) is back"
    exit 1
fi

echo "==> pvar is a fold of the comm log: one online observer of communication"
# Every pvar counter is a function of records the recorder keeps, so
# `PvarSnapshot::from_log` folds the frozen log and no second tool drives a
# spine over the same steps. Also pinned by the compiler, for the old tool:
# `PvarRegistry` is an alias of `CommRecorder`, so a second
# `impl Tool for PvarRegistry` conflicts with the recorder's (E0119); and in
# tier-1, for the output: `crates/core/src/spine.rs`'
# `tools_follow_sections_closed_out_of_enter_order` reads pvar's five rows
# from a log no pvar tool watched. No test pins a new online pvar type
# coming back beside the fold: this guard does.
if grep -n 'Spine<\|impl Tool for' crates/core/src/pvar.rs; then
    echo "crates/core/src/pvar.rs: pvar drives its own spine or observes the run again"
    exit 1
fi

echo "==> fidelity is whether the data exists: one body per operation over Payload"
# A rendezvous slot is a Payload, real or virtual, so no collective keeps a
# timing-mode copy, and the workloads build one payload per message instead
# of forking on fidelity around the call. Tier-1 pins the behaviour, not
# the absence of a copy: `tests/fidelity.rs` holds both fidelities' timing
# artifacts byte-equal, which a copy that priced alike would pass too.
if grep -rn 'fn bcast_virtual\|fn scatterv_virtual\|fn gatherv_virtual' crates/mpisim/src; then
    echo "crates/mpisim/src: a timing-mode copy of a collective is back beside its payload body"
    exit 1
fi
if grep -rn 'sendrecv_virtual\|scatterv_virtual\|gatherv_virtual' crates/convolution/src crates/lulesh/src; then
    echo "crates/{convolution,lulesh}/src: a workload forks on fidelity at a communication site again"
    exit 1
fi
if grep -n 'Box<dyn Any + Send>' crates/mpisim/src/collective.rs; then
    echo "crates/mpisim/src/collective.rs: a rendezvous slot is a box again instead of a Payload"
    exit 1
fi
if grep -n 'HashMap' crates/core/src/trace.rs; then
    echo "crates/core/src/trace.rs: flows are keyed by seq again instead of read off each match"
    exit 1
fi

echo "==> one virtual clock: machine prices every message and collective"
# The engine and the what-if replay call the same MachineModel methods on
# the same machine::noise streams; no copy of the cost table, the stream
# ids or the link arithmetic may come back beside them. Tier-1 pins the
# agreement, not the absence of a copy: `tests/whatif_replay.rs` holds a
# replay under an altered machine equal to a run on it, which a copy that
# priced alike would pass too.
if grep -rn 'collective_base_secs\|NETWORK_STREAM\|COLLECTIVE_NAMESPACE' crates; then
    echo "crates: a copy of the collective cost table or a jitter stream id is back"
    exit 1
fi
if [ "$(grep -rn '0x636f_6c6c_6563_7469' crates/*/src | wc -l)" -ne 1 ]; then
    echo "crates/*/src: the collective stream namespace is spelled other than once"
    exit 1
fi
if grep -n 'transfer_secs\|latency_jitter\|DetRng::for_stream' crates/core/src/replay.rs; then
    echo "crates/core/src/replay.rs: replay prices a message itself instead of through machine"
    exit 1
fi

echo "==> the section layer holds a long run once, in its smallest exact form"
# Also pinned in tier-1, for `instances.clone()`: `tests/alloc_steady_state.rs`'
# `snapshot_hands_the_profile_over` holds a snapshot's bytes equal, within
# 512 B, at 200 and 2000 iterations. No test pins the other three targets.
if grep -n 'instances\.clone()\|per_rank_own\.clone()' crates/core/src/profiler.rs; then
    echo "crates/core/src/profiler.rs: snapshot copies what grows with the run instead of sharing it"
    exit 1
fi
if grep -rn 'sumsq_' crates; then
    echo "crates: a reader-less sum of squares is back in InstanceStats"
    exit 1
fi
if grep -n 'Vec<VerifyEvent>' crates/core/src/section.rs; then
    echo "crates/core/src/section.rs: the agreed sequence is wider than one word per event again"
    exit 1
fi

echo "==> one way from a cell to a paper row: bench::profiled / profiled_cell"
# No test pins it: a wrapper around bench::profiled, or a second hand-built
# world, would compile and print the same figures.
if grep -rn 'measure_convolution\|measure_lulesh\|lulesh_profile\|conv_profile' crates; then
    echo "crates: a wrapper around bench::profiled is back beside it"
    exit 1
fi
# `ablation-adaptive` (one rank pricing shmem teams, not a conv / LULESH /
# race program) is the one world `figures` builds itself.
if [ "$(grep -c 'WorldBuilder::new' crates/bench/src/bin/figures.rs)" -gt 1 ]; then
    echo "crates/bench/src/bin/figures.rs: a second hand-built world is back beside bench::Launch"
    exit 1
fi

echo "==> one cross-scale table: speedup::ScalingStudy, ranked by mpi_sections::rank_bounds"
# A comparison of two runs is a study at two scales, and the Eq. 6
# tightest-first sort is spelled once, inside `rank_bounds`. No test pins
# it: a second cross-scale table or sort would compile and pass.
for gone in ProfileComparison SectionScaling 'fn bounds_from_profile(' 'fn binding_bound(' \
    'fn efficiency_series('; do
    if grep -rn "$gone" crates src examples; then
        echo "crates, src, examples: '$gone' is back beside speedup::ScalingStudy"
        exit 1
    fi
done
bound_sorts="$(grep -rn 'partial_cmp(&b.1).unwrap_or(' crates src examples || true)"
if [ "$bound_sorts" != "$(echo "$bound_sorts" | grep '^crates/core/src/report.rs:' | head -n 1)" ]; then
    echo "an Eq. 6 bound sort is spelled outside mpi_sections::rank_bounds"
    exit 1
fi

echo "==> no per-operation allocation on the steady-state path (counted by tests/alloc_steady_state.rs)"
# The count is the gate (it ran under `cargo test` above); this names the
# bodies a `Vec` per call used to sit in, so the reason is on the line
# that fails.
steady_body() { sed -n "/fn $2[(<]/,/^    }/p" "$1"; }
if { steady_body crates/mpisim/src/topo.rs neighbor
     steady_body crates/shmem/src/team.rs charge_region
     steady_body crates/shmem/src/team.rs uniform_loads
     steady_body crates/shmem/src/team.rs for_cost_uniform
   } | grep -n 'vec!\|Vec::\|\.collect()'; then
    echo "a per-operation allocation is back on the steady-state path"
    exit 1
fi

echo "==> results/ is what \`figures all\` writes (19 CSVs, ~26 s)"
cargo build -q --release -p bench --bin figures
figures_out="$(mktemp -d /tmp/check-figures.XXXXXX)"
./target/release/figures all --out "$figures_out" > /dev/null 2>&1 \
    || { echo "figures all: failed"; exit 1; }
drift="$(diff -rq results "$figures_out" | head -n 1)"
test -z "$drift" \
    || { echo "results/ drifted from what this tree writes: $drift"; exit 1; }
rm -rf "$figures_out"

echo "==> benchmark package builds against these crates (the root test never compiles it)"
(cd benchmark && cargo test --release --quiet)
git diff --exit-code -- benchmark/Cargo.lock \
    || { echo "benchmark/Cargo.lock: a dependency-graph change staled the frozen lock file"; exit 1; }
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- suite --smoke > /dev/null

echo "==> benchmark: one full-size conv16k_scale run must come back correct"
# `suite --smoke` caps p at 64 and nothing else here launches more than
# 4096 ranks: a failure only 16384 ranks show (a fiber stack overflowing,
# a table sized short of `Init.size`) would otherwise pass the gate.
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload conv16k_scale --seed 2 --seconds 6 --trace 0 \
    | tail -n 1 | grep -q '"correct": true' \
    || { echo "conv16k_scale: result line does not say \"correct\": true"; exit 1; }

echo "==> benchmark: one full-size conv456_observed run must come back correct"
# p = 456 with the full observer stack (the recorder and its folds: pvar,
# wait states, critical path, timeline; JSON export) is launched nowhere
# else here.
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload conv456_observed --seed 2 --seconds 6 --trace 0 \
    | tail -n 1 | grep -q '"correct": true' \
    || { echo "conv456_observed: result line does not say \"correct\": true"; exit 1; }

echo "==> benchmark: one full-size lulesh64_hybrid run must come back correct"
# p = 64 x 2000 iterations with a four-thread team per rank (the paper's
# second evaluation) is launched nowhere else here.
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload lulesh64_hybrid --seed 2 --seconds 6 --trace 0 \
    | tail -n 1 | grep -q '"correct": true' \
    || { echo "lulesh64_hybrid: result line does not say \"correct\": true"; exit 1; }

echo "==> smoke: hostile command lines exit 2, not 101"
for hostile in \
    "mpistudy study run --store" \
    "bench figures fig7 --steps" \
    "bench figures fig7 --reps x" \
    "bench figures fig6 --reps 0"
do
    set -- $hostile
    package="$1"; binary="$2"; shift 2
    hostile_status=0
    cargo run -q --release -p "$package" --bin "$binary" -- "$@" > /dev/null 2>&1 \
        || hostile_status=$?
    test "$hostile_status" -eq 2 \
        || { echo "$binary $*: expected exit 2, got $hostile_status"; exit 1; }
done

echo "==> smoke: --check at the paper's scale, conv --p 456 --steps 100 (time-boxed)"
# The paper's headline configuration is where verification must stay
# usable: the flag costs one callback per receive (tens of milliseconds
# here), and a checker that grows faster than p does not fit the box.
cargo build -q --release -p bench --bin profile
timeout 20 ./target/release/profile conv --p 456 --steps 100 --check > /dev/null \
    || { echo "profile conv --p 456 --steps 100 --check: failed or took more than 20 s"; exit 1; }

echo "==> smoke: the observed paper run stays under its memory ceiling"
# Full recording at p = 456 x 400 steps: the recorder is the one online
# observer of communication, and pvar, the wait states, the critical path
# and the timeline are folds of its log (22.0 MB, 120 B per rank-step),
# which dominates; the run peaks at about 33.3 MB (33.8 MB while a pvar
# tool watched the run beside the recorder, 36.4 MB while a receive took
# two payload words and the timeline kept a cell per rank, 46.2 MB while a
# send slot repeated its record's facts). 37 MB leaves about 10 % for the
# host.
smoke_observed="$(mktemp /tmp/check-observed.XXXXXX.json)"
python3 - "$smoke_observed" <<'PY' || exit 1
import os, subprocess, sys
ceiling_mb = 37.0
cmd = ["./target/release/profile", "conv", "--p", "456", "--steps", "400",
       "--machine", "nehalem", "--metrics", "--efficiency", "--metrics-json", sys.argv[1]]
child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
peak_mb = usage.ru_maxrss / 1024
if os.waitstatus_to_exitcode(status) != 0:
    sys.exit(f"{' '.join(cmd)}: exit status {status}")
if peak_mb > ceiling_mb:
    sys.exit(f"{' '.join(cmd)}: peak RSS {peak_mb:.1f} MB > {ceiling_mb} MB ceiling")
print(f"peak RSS {peak_mb:.1f} MB (ceiling {ceiling_mb} MB)")
PY
rm -f "$smoke_observed"

echo "==> smoke: examples"
cargo run -q --release --example quickstart > /dev/null
cargo run -q --release --example check_misuse > /dev/null
# Sections on split sub-communicators, and the public SectionTool API
# reading EnterInfo/LeaveInfo labels.
cargo run -q --release --example coupled_codes | grep -q 'coupling-boundary balance: COUPLING' \
    || { echo "coupled_codes: no COUPLING balance line"; exit 1; }
cargo run -q --release --example tool_interposition | grep -q "rank 0: 'MPI_MAIN' took" \
    || { echo "tool_interposition: no MPI_MAIN leave read through LeaveInfo"; exit 1; }

echo "==> smoke: profile conv --metrics --trace"
smoke_trace="$(mktemp /tmp/check-trace.XXXXXX.json)"
cargo run -q --release -p bench --bin profile -- \
    conv --p 4 --steps 5 --metrics --trace "$smoke_trace" > /dev/null
test -s "$smoke_trace" || { echo "empty trace output: $smoke_trace"; exit 1; }
cargo run -q --release -p bench --bin jsoncheck -- "$smoke_trace"
# A trace capped below the world size says so in the document itself.
cargo run -q --release -p bench --bin profile -- \
    conv --p 4 --steps 2 --trace-max-ranks 2 --trace "$smoke_trace" > /dev/null
cargo run -q --release -p bench --bin jsoncheck -- "$smoke_trace"
grep -q '"name":"trace_cap","ph":"M","pid":0,"args":{"max_ranks":2,"dropped_ranks":2}' "$smoke_trace" \
    || { echo "capped trace: missing its trace_cap row"; exit 1; }
rm -f "$smoke_trace"

echo "==> smoke: profile conv --efficiency --timeline --windows 8"
smoke_metrics="$(mktemp /tmp/check-metrics.XXXXXX.json)"
smoke_timeline="$(mktemp /tmp/check-timeline.XXXXXX.csv)"
cargo run -q --release -p bench --bin profile -- \
    conv --p 8 --steps 10 --efficiency --timeline "$smoke_timeline" --windows 8 \
    --metrics-json "$smoke_metrics" > /dev/null
test -s "$smoke_timeline" || { echo "empty timeline CSV: $smoke_timeline"; exit 1; }
head -1 "$smoke_timeline" | grep -q '^window,start_ns' \
    || { echo "timeline CSV missing header"; exit 1; }
cargo run -q --release -p bench --bin jsoncheck -- "$smoke_metrics"
grep -q '"timeline"' "$smoke_metrics" \
    || { echo "metrics JSON missing timeline object"; exit 1; }
rm -f "$smoke_metrics" "$smoke_timeline"

echo "==> smoke: what-if counterfactual replay"
# The noisy p=64 convolution run flags HALO as degrading; replaying the
# same trace with jitter removed must recover the noise-free verdict
# ("no degrading sections") without re-running the program.
smoke_whatif="$(mktemp /tmp/check-whatif.XXXXXX.json)"
whatif_out="$(cargo run -q --release -p bench --bin profile -- \
    conv --p 64 --steps 100 --machine nehalem --seed 1 --efficiency \
    --what-if jitter=0 --what-if net=ideal,jitter=0 \
    --metrics-json "$smoke_whatif")"
cargo run -q --release -p bench --bin jsoncheck -- "$smoke_whatif"
grep -q '"whatif":\[{"spec":"jitter=0"' "$smoke_whatif" \
    || { echo "metrics JSON missing whatif scenarios"; exit 1; }
grep -q '"config":{"machine":{' "$smoke_whatif" \
    || { echo "metrics JSON missing machine config block"; exit 1; }
echo "$whatif_out" | grep -q 'HALO.*DEGRADING: late-sender wait' \
    || { echo "what-if: noisy baseline should flag HALO as degrading"; exit 1; }
echo "$whatif_out" | grep -q 'jitter=0.*all steady' \
    || { echo "what-if: jitter=0 replay should recover the steady verdict"; exit 1; }
rm -f "$smoke_whatif"

echo "==> smoke: dynamic verification (mpiverify)"
# The verify_race example asserts both directions in-process (confirmed
# race with replayable divergent witnesses; benign wildcard exhaustively
# refuted) and writes the combined verdict JSON for validation here.
smoke_verdicts="$(mktemp /tmp/check-verdicts.XXXXXX.json)"
cargo run -q --release --example verify_race -- "$smoke_verdicts" > /dev/null
cargo run -q --release -p bench --bin jsoncheck -- "$smoke_verdicts"
grep -q '"verdict":"confirmed"' "$smoke_verdicts" \
    || { echo "verify_race: expected a confirmed verdict"; exit 1; }
grep -q '"verdict":"refuted"' "$smoke_verdicts" \
    || { echo "verify_race: expected a refuted verdict"; exit 1; }
rm -f "$smoke_verdicts"

# The racy workload must exit 1 with a confirmed verdict and a witness
# pair whose replays produce observably different metrics JSON.
smoke_verify="$(mktemp /tmp/check-verify.XXXXXX.json)"
wprefix="$(mktemp -u /tmp/check-witness.XXXXXX)"
verify_status=0
cargo run -q --release -p bench --bin profile -- \
    race --p 4 --verify --verify-json "$smoke_verify" \
    --verify-witnesses "$wprefix" > /dev/null 2>&1 || verify_status=$?
test "$verify_status" -eq 1 \
    || { echo "profile race --verify: expected exit 1, got $verify_status"; exit 1; }
cargo run -q --release -p bench --bin jsoncheck -- "$smoke_verify"
grep -q '"verdict":"confirmed"' "$smoke_verify" \
    || { echo "profile race --verify: expected a confirmed verdict"; exit 1; }
cargo run -q --release -p bench --bin profile -- \
    race --p 4 --replay-schedule "$wprefix.a.json" \
    --metrics-json /tmp/check-replay-a.json > /dev/null
cargo run -q --release -p bench --bin profile -- \
    race --p 4 --replay-schedule "$wprefix.b.json" \
    --metrics-json /tmp/check-replay-b.json > /dev/null
cargo run -q --release -p bench --bin jsoncheck -- /tmp/check-replay-a.json
cargo run -q --release -p bench --bin jsoncheck -- /tmp/check-replay-b.json
if cmp -s /tmp/check-replay-a.json /tmp/check-replay-b.json; then
    echo "witness replays produced identical metrics JSON (divergence lost)"
    exit 1
fi
rm -f "$smoke_verify" "$wprefix.a.json" "$wprefix.b.json" \
    /tmp/check-replay-a.json /tmp/check-replay-b.json

# The wildcard-free paper workload must come back clean (exit 0, no
# confirmed verdicts) under the same budget.
smoke_clean="$(mktemp /tmp/check-verify-conv.XXXXXX.json)"
cargo run -q --release -p bench --bin profile -- \
    conv --p 4 --steps 5 --verify --verify-json "$smoke_clean" > /dev/null
cargo run -q --release -p bench --bin jsoncheck -- "$smoke_clean"
if grep -q '"verdict":"confirmed"' "$smoke_clean"; then
    echo "profile conv --verify: unexpected confirmed race"
    exit 1
fi
rm -f "$smoke_clean"

echo "==> smoke: study service (cold sweep, warm cache, report, gc)"
smoke_store="$(mktemp -d /tmp/check-study.XXXXXX)"
smoke_grid="workload=conv machine=nehalem_cluster p=1,4,8 steps=5 seeds=0,1"
cold_out="$(cargo run -q --release -p mpistudy --bin study -- \
    run --store "$smoke_store" --grid "$smoke_grid" --jobs 2)"
echo "$cold_out" | grep -q '6 cells, 6 executed, 0 cached' \
    || { echo "study run (cold): unexpected stats: $cold_out"; exit 1; }
# The warm rerun must be served entirely from the store: zero simulations.
warm_out="$(cargo run -q --release -p mpistudy --bin study -- \
    run --store "$smoke_store" --grid "$smoke_grid" --jobs 2)"
echo "$warm_out" | grep -q '6 cells, 0 executed, 6 cached (100% hit)' \
    || { echo "study run (warm): expected 100% cache hits: $warm_out"; exit 1; }
smoke_report="$(mktemp /tmp/check-study-report.XXXXXX.json)"
cargo run -q --release -p mpistudy --bin study -- \
    report --store "$smoke_store" --json > "$smoke_report"
cargo run -q --release -p bench --bin jsoncheck -- "$smoke_report"
grep -q '"schema": "mpistudy-report-v1"' "$smoke_report" \
    || { echo "study report: missing schema marker"; exit 1; }
cargo run -q --release -p mpistudy --bin study -- gc --store "$smoke_store" \
    | grep -q '6 intact, 0 removed' \
    || { echo "study gc: store should be intact"; exit 1; }
rm -rf "$smoke_store" "$smoke_report"

echo "==> smoke: DES scale, conv --p 4096 (time-boxed)"
smoke_scale="$(mktemp /tmp/check-scale.XXXXXX.json)"
scale_start="$(date +%s)"
cargo run -q --release -p bench --bin profile -- \
    conv --p 4096 --steps 10 --engine des --machine ideal \
    --metrics --metrics-json "$smoke_scale" > /dev/null
scale_secs="$(( $(date +%s) - scale_start ))"
# Generous box: the run itself takes ~1 s; anything near a minute means
# the event queue has regressed to thread-like scaling.
test "$scale_secs" -le 60 \
    || { echo "p=4096 DES smoke took ${scale_secs}s (> 60s box)"; exit 1; }
cargo run -q --release -p bench --bin jsoncheck -- "$smoke_scale"
rm -f "$smoke_scale"

echo "==> smoke: streaming summary, conv --p 4096 --summary (time-boxed)"
# At p >= 1024 the profiler switches to summary-only recording: bounded
# sketches instead of a full event log. The summary JSON must validate
# and carry the edge-eviction counter that proves the top-k cap engaged.
smoke_summary="$(mktemp /tmp/check-summary.XXXXXX.json)"
summary_start="$(date +%s)"
cargo run -q --release -p bench --bin profile -- \
    conv --p 4096 --steps 10 --engine des --machine ideal \
    --summary --summary-json "$smoke_summary" > /dev/null
summary_secs="$(( $(date +%s) - summary_start ))"
test "$summary_secs" -le 60 \
    || { echo "p=4096 summary smoke took ${summary_secs}s (> 60s box)"; exit 1; }
cargo run -q --release -p bench --bin jsoncheck -- "$smoke_summary"
grep -q '"dropped_edges"' "$smoke_summary" \
    || { echo "summary JSON missing dropped_edges counter"; exit 1; }
grep -q '"schema":"mpisim-summary-v1"' "$smoke_summary" \
    || { echo "summary JSON missing schema marker"; exit 1; }
rm -f "$smoke_summary"

echo "==> smoke: one reservation for 16384 stacks, conv --p 16384 --steps 1 (time-boxed, memory ceiling)"
# The benchmark's scale through the CLI: the mapping-budget check, 16384
# guard pages, one step, and teardown of the whole reservation at exit.
# The summarizer's event path runs on every rank's fiber stack, so one
# more page of stack depth there is 64 MB at this p: the run peaks at about
# 83.5 MB (149–259 MB while a section's 1.7 KB default was built inline on
# that path). 92 MB leaves about 10 % for the host.
smoke_stacks="$(mktemp /tmp/check-stacks.XXXXXX.json)"
python3 - "$smoke_stacks" <<'PY' || exit 1
import os, subprocess, sys, time
ceiling_mb, box_s = 92.0, 60
cmd = ["./target/release/profile", "conv", "--p", "16384", "--steps", "1",
       "--machine", "ideal", "--summary-json", sys.argv[1]]
start = time.monotonic()
child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
secs, peak_mb = time.monotonic() - start, usage.ru_maxrss / 1024
if os.waitstatus_to_exitcode(status) != 0:
    sys.exit(f"{' '.join(cmd)}: exit status {status}")
if secs > box_s:
    sys.exit(f"p=16384 one-step smoke took {secs:.0f}s (> {box_s}s box)")
if peak_mb > ceiling_mb:
    sys.exit(f"{' '.join(cmd)}: peak RSS {peak_mb:.1f} MB > {ceiling_mb} MB ceiling")
print(f"peak RSS {peak_mb:.1f} MB (ceiling {ceiling_mb} MB)")
PY
rm -f "$smoke_stacks"

echo "==> all checks passed"
