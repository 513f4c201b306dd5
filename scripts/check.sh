#!/bin/sh
# check.sh — the full verification gate for this repo (ROADMAP tier-1 plus
# the static-analysis and race gates). Run from anywhere inside the module.
#
#   gofmt      every file formatted
#   go vet     compiler-adjacent checks
#   overlint   domain invariants (determinism, cloakboundary,
#              errnodiscipline, iagoflow, cyclecharge, smpready) — see
#              DESIGN.md; an allow directive that suppresses nothing is a
#              finding; also pins the smpready, determinism and iagoflow
#              allow counts at their exact inventories (determinism's four:
#              the baton goroutine, ordered.Keys, and two cloak metastore
#              loops; none for the other two)
#   build      everything compiles
#   host clock no non-test package of the main module imports time: every
#              overbench output is a pure function of its flags (bench/ and
#              _test.go files keep their timers)
#   programs   every main package lives under cmd/, where a step below runs
#              each one; the runnable tour is the root package's Examples,
#              which the tests run, so a demo program cannot go unrun
#   tests      full suite, plus vet and tests of the nested bench/ module
#              (its own go.mod, so ./... above never compiles it)
#   benchmarks every package benchmark once, and the root BenchmarkExperiment
#              once per registry entry, so one that breaks at set-up fails
#              the gate
#   fuzz       1000 executions each of the native fuzz targets over
#              untrusted input: FuzzDecode (the migration checkpoint
#              decoder; its 400-input seed corpus, then mutated inputs),
#              FuzzReplay (journal replay over a hostile disk image; the
#              journal tests' images, then mutated inputs), FuzzValidate
#              (the shim's checks of kernel syscall returns; its pool of
#              layout boundaries and wild values, then mutated inputs) and
#              FuzzHypercalls (hypercall sequences: overlapping and
#              out-of-range regions, clones, stale handles, app writes,
#              kernel reads and corrupted frames, each followed by typed-
#              error and dead-domain residue checks) and FuzzPageTable
#              (page-table operation sequences over the guest layout's
#              regions and the MaxVPN edge, wild PNs included, checked
#              against a map model)
#   race       race detector over the packages whose goroutines hand off
#              the scheduler baton, including the SMP interleaving tests at
#              4 vCPUs — the only check that the baton orders every access
#              to machine state (sim and vmm hold no locks)
#   determinism  serial vs 4-way sharded runs byte-identical, the VCPUs=1
#              goldens, the VCPUs=4 two-run check, the full-scale text
#              golden (scripts/goldens/full-seed1.txt), and the run report
#              byte-identical across shard counts
#   readers    overprof renders the run report and overtrace the Chrome
#              trace, each from a built overbench's output
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== overlint"
go run ./cmd/overlint ./...

# Allow pins: each `//overlint:allow <analyzer>` is an exemption with its
# reason, and three analyzers' inventories are pinned at their exact counts,
# so adding one or removing one both take a deliberate, reviewed change of
# the pin. smpready flags package-level vars in mach/sim/vmm written at
# runtime (state outside any World, which the scheduler baton does not
# serialize); none exists, so its pin is zero. determinism bans map ranges
# in every machine package, and its pin is four: the baton-scheduled
# goroutine in guestos/proc.go, the collect-then-sort range inside
# ordered.Keys (the machine's one way to walk a map), and the two
# cloak.MetaStore loops that delete or count every record of a domain
# (PageID keys are not cmp.Ordered, and each step is order-blind).
# iagoflow's pin is zero: read, write, pread and pwrite reach the kernel
# through one shim call site (UserCtx.Transfer), so one exemption there would
# switch off the check on every byte count the kernel returns.
# overlint does not analyze _test.go files, so their directives do not
# count.
for pin in smpready:0 determinism:4 iagoflow:0; do
    analyzer=${pin%%:*}
    want=${pin#*:}
    got=$(grep -rn "overlint:allow $analyzer" --include="*.go" --exclude="*_test.go" internal | grep -cv testdata || true)
    if [ "$got" -ne "$want" ]; then
        echo "$analyzer inventory changed: $got allow directives (pinned at $want)" >&2
        echo "iterate an ordered structure or keep state on the World; else justify the exemption and move the pin" >&2
        exit 1
    fi
    echo "$analyzer inventory: $got allow directives (pinned)"
done

echo "== build"
go build ./...

echo "== host clock"
# Host cost has its own instruments (bench/ and BenchmarkExperiment), so the
# main module's programs never read the host clock. go list reports non-test
# imports only, and bench/ is a module of its own.
timed=$(go list -f '{{.ImportPath}}: {{join .Imports " "}}' ./... | grep -w time || true)
if [ -n "$timed" ]; then
    echo "packages importing time:" >&2
    echo "$timed" >&2
    exit 1
fi

echo "== programs"
# Each cmd/ program runs in a step of this gate, and README's tour is the
# root package's Examples, whose // Output: blocks the tests pin. A main
# package anywhere else would be a program nothing runs.
stray=$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./... | grep -v '^overshadow/cmd/' || true)
if [ -n "$stray" ]; then
    echo "main packages outside cmd/ (make them Examples, or cmd/ programs a step runs):" >&2
    echo "$stray" >&2
    exit 1
fi

echo "== tests"
go test ./...

echo "== benchmarks"
go test -run '^$' -bench . -benchtime 1x -benchmem . ./internal/sim ./internal/mmu ./internal/vmm ./internal/cloak ./internal/guestos ./internal/core \
    ./internal/persist ./internal/migrate

echo "== bench module"
# bench/ is a nested module built against this tree (replace ../): an API
# change in core or sim breaks it without touching any file under bench/.
(cd bench && go vet ./... && go test ./...)

echo "== fuzz"
# The checkpoint decoder takes untrusted bytes off the migration channel,
# journal replay reads a disk the guest controls, the shim's validators read
# whatever the kernel returns from a syscall, the hypercall surface takes
# any sequence of calls the guest drives through it, and the guest kernel
# writes the page tables the VMM reads. A crasher is a bug:
# go test saves it under the package's testdata/fuzz/, where it becomes the
# fix's regression seed. The execution count includes the seed-corpus
# baseline, so it must stay well above the 400 FuzzDecode seeds for any
# mutated input to run.
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 1000x ./internal/migrate
go test -run '^$' -fuzz '^FuzzReplay$' -fuzztime 1000x ./internal/persist
go test -run '^$' -fuzz '^FuzzValidate$' -fuzztime 1000x ./internal/shim
go test -run '^$' -fuzz '^FuzzHypercalls$' -fuzztime 1000x ./internal/vmm
go test -run '^$' -fuzz '^FuzzPageTable$' -fuzztime 1000x ./internal/mmu

echo "== race pass"
# The channel handoff of the scheduler baton is the happens-before edge that
# orders every access to sim and vmm state; a goroutine touching machine
# state without holding the baton is a race the detector reports.
# internal/core includes the SMP suite (TestSMP* boots 2- and 4-vCPU
# machines), and internal/vmm the cross-CPU fault/CTC/shootdown tests, so
# this is also the required race pass over the VCPUs=4 interleaving. The
# harness E17 run covers the adversary suites (scheduler races, tamper
# storms, exhaustion floods) and E16 the migration sweep (capture under
# load, faulted transfer, cross-vCPU restore), both at 1 and 4 vCPUs
# under the detector; E13 and E14 add the fault and crash sweeps, and
# TestSweepOrder the pool's submit-and-collect path at widths 1 and 8.
# internal/migrate adds the codec fuzz and end-to-end migration suites,
# and shim, workload, sim and persist cover the remaining code that runs
# on the baton holder.
go test -race ./internal/guestos/... ./internal/core/... ./internal/vmm/ ./internal/migrate/ \
    ./internal/shim/ ./internal/workload/ ./internal/sim/ ./internal/persist/
go test -race ./internal/harness/ -run 'TestE1[3467]|TestSweep'

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/overbench" ./cmd/overbench

# shard_cmp LABEL SEEDS [-report] OVERBENCH-ARGS...
# Sharding may change wall time only: for each seed, the JSON of a serial run
# must be byte-identical to a 4-way sharded run (and with -report, so must
# the run report). The serial output stays at
# $tmpdir/LABEL-serial-SEED.json for the gates that follow.
shard_cmp() {
    label=$1 seeds=$2
    shift 2
    report=
    if [ "${1:-}" = -report ]; then
        report=1
        shift
    fi
    for s in $seeds; do
        for mode in serial sharded; do
            shards=1
            [ "$mode" = serial ] || shards=4
            out="$tmpdir/$label-$mode-$s"
            if [ -n "$report" ]; then
                "$tmpdir/overbench" "$@" -seed "$s" -shards "$shards" -json \
                    -report "$out.report.json" > "$out.json" 2>/dev/null
            else
                "$tmpdir/overbench" "$@" -seed "$s" -shards "$shards" -json > "$out.json"
            fi
        done
        for ext in json report.json; do
            a="$tmpdir/$label-serial-$s.$ext" b="$tmpdir/$label-sharded-$s.$ext"
            [ -e "$a" ] || continue
            if ! cmp -s "$a" "$b"; then
                echo "$label determinism broken: seed $s $ext differs between -shards 1 and -shards 4" >&2
                diff "$a" "$b" | head -20 >&2
                exit 1
            fi
        done
    done
}

echo "== shard determinism"
# The quick suite (E1-E14, E16, E17 at quick scale) on two seeds.
shard_cmp quick "1 42"

echo "== vcpus determinism"
# The N=1 compatibility contract: -vcpus 1 (the default) is the serialized
# machine, so the quick suite's JSON must be byte-identical to the pinned
# goldens in scripts/goldens/ (see its README for the regeneration log), on
# two seeds. The serial runs above are exactly that machine — compare them.
for s in 1 42; do
    if ! cmp -s "scripts/goldens/vcpus1-seed$s.json" "$tmpdir/quick-serial-$s.json"; then
        echo "VCPUs=1 golden broken: seed $s output differs from scripts/goldens/vcpus1-seed$s.json" >&2
        diff "scripts/goldens/vcpus1-seed$s.json" "$tmpdir/quick-serial-$s.json" | head -20 >&2
        exit 1
    fi
done
# A 4-vCPU machine must be shard-independent like every machine and
# deterministic per seed (two-run cmp: the seeded interleaving is the only
# schedule source).
shard_cmp v4 "1 42" -vcpus 4
for s in 1 42; do
    "$tmpdir/overbench" -vcpus 4 -seed "$s" -shards 1 -json > "$tmpdir/v4-again-$s.json"
    if ! cmp -s "$tmpdir/v4-serial-$s.json" "$tmpdir/v4-again-$s.json"; then
        echo "VCPUs=4 determinism broken: seed $s output differs between two identical runs" >&2
        diff "$tmpdir/v4-serial-$s.json" "$tmpdir/v4-again-$s.json" | head -20 >&2
        exit 1
    fi
done
echo "vcpus goldens: VCPUs=1 byte-identical to the pinned goldens, VCPUs=4 deterministic and shard-independent (seeds 1, 42)"

echo "== full-scale golden"
# The full-scale text EXPERIMENTS.md quotes, each table footed by its
# simulated-cycle total, at the default shard count (text output is
# shard-independent too).
"$tmpdir/overbench" -full -seed 1 > "$tmpdir/full-seed1.txt"
if ! cmp -s scripts/goldens/full-seed1.txt "$tmpdir/full-seed1.txt"; then
    echo "full-scale golden broken: output differs from scripts/goldens/full-seed1.txt" >&2
    diff scripts/goldens/full-seed1.txt "$tmpdir/full-seed1.txt" | head -20 >&2
    exit 1
fi
echo "full-scale golden: byte-identical"

# The sweeps below are also in the quick suite at seeds 1 and 42; these
# gates add seeds of their own.

echo "== fault-sweep smoke"
# E13 drives the fault-injection layer end to end: the injected fault
# schedule is part of the deterministic machine.
shard_cmp fault "3 11" -e E13

echo "== report determinism"
# The run report buckets every charged cycle by attribution key and by call
# chain and histograms every span duration. Merging per-world metrics and
# profiles is additive and every export sorts, so the report and the observed
# table JSON are shard-independent.
shard_cmp report "3 11" -report -e E2
for s in 3 11; do
    # The report must parse and render through the summarizer.
    go run ./cmd/overprof "$tmpdir/report-serial-$s.report.json" > /dev/null
done
echo "run report: verified shard-independent (seeds 3, 11)"

echo "== trace reader"
# The Chrome trace is the other run artifact with a reader of its own: it
# must parse and render through the summarizer too.
"$tmpdir/overbench" -e E2 -shards 1 -trace "$tmpdir/trace.json" > /dev/null 2>&1
go run ./cmd/overtrace "$tmpdir/trace.json" > /dev/null
echo "trace artifact: rendered by overtrace"

echo "== crash-sweep smoke"
# E14 crashes whole machines at derived cycle deadlines and reboots each one
# through journal replay and page recovery; a (seed, crash point) pair names
# one exact crashed world.
shard_cmp crash "5 9" -e E14

echo "== adversary-sweep smoke"
# E17 runs the pluggable malicious kernel: Iago forgeries, scheduler races,
# rootkit hiding, and exhaustion floods. Attack schedules derive from
# (seed, plan name).
shard_cmp adversary "23" -e E17

echo "ALL CHECKS PASSED"
