// Command shpbench is the repository's benchmark. It generates one seeded
// workload, drives it through the partitioner's packages in a closed loop
// for a fixed time, checks every output, and prints the metrics as one JSON
// object on the last line of standard output.
//
// It runs in two steps, each a separate process so that input generation
// never shares a heap or a timer with the measurement:
//
//	shpbench gen -workload cold-shp2 -seed 1 -dir D
//	shpbench run -workload cold-shp2 -seed 1 -dir D -seconds 20 -trace 0
//
// perfbench/run.sh builds the binary and runs both steps; see README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// params sizes the workloads. The self-test runs the same code on a
// smaller instance.
type params struct {
	coldUsers  int // SocialEgoNets users for cold-shp2
	churnUsers int // ... for churn-serve
	distUsers  int // ... for dist-bsp
	// epochsPerRound is the length of the pre-generated churn trace; one
	// round replays all of it through a fresh service.
	epochsPerRound int
	// minRounds is the fewest churn rounds a run makes, so the epoch tail
	// always has at least ten samples beyond it.
	minRounds int
	// minOps is the fewest partition operations a cold or distributed run
	// makes.
	minOps int
	// extraSetups adds set-ups before the timed loop, beyond one per round
	// or operation, so the median set-up time rests on several samples.
	extraSetups int
	// parBaselines is the number of Parallelism=1 partitions a traced
	// cold run makes for par.speedup.
	parBaselines int
}

var defaultParams = params{
	coldUsers:      200000,
	churnUsers:     20000,
	distUsers:      20000,
	epochsPerRound: 50,
	minRounds:      2,
	minOps:         5,
	extraSetups:    4,
	parBaselines:   3,
}

// Generator settings shared by every workload (the hgen defaults).
const (
	avgFriends    = 20
	communitySize = 100
	intraFraction = 0.85
)

// env is what one measured run works with.
type env struct {
	p       params
	seed    uint64
	dir     string // holds the generated inputs; the run writes outputs here
	seconds time.Duration
	traced  bool
	nproc   int
	tr      *tracer
	res     *results
	// rss holds each operation's peak resident size when the kernel lets
	// the peak mark be reset per operation (perOpRSS).
	rss      []float64
	perOpRSS bool
	// allocMB and gcCycles are the median heap allocation and GC cycles of
	// partitionLoop's traced partition calls.
	allocMB, gcCycles float64
}

// beginOp starts a closed-loop operation from a collected heap and a fresh
// peak-RSS mark. Called outside timed intervals.
func (e *env) beginOp() {
	coldStart()
	e.perOpRSS = resetPeakRSS()
}

// endOp records the operation's peak resident size.
func (e *env) endOp() { e.rss = append(e.rss, peakRSSMB()) }

type workload struct {
	name string
	gen  func(p params, seed uint64, dir string) error
	run  func(e *env) error
}

var workloads = []workload{
	{"cold-shp2", genCold, runCold},
	{"churn-serve", genChurn, runChurn},
	{"dist-bsp", genDist, runDist},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want cold-shp2, churn-serve or dist-bsp)", name)
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: shpbench gen|run -workload NAME -seed N -dir DIR [-seconds S -trace 0|1]")
		os.Exit(2)
	}
	mode := os.Args[1]
	fs := flag.NewFlagSet(mode, flag.ExitOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed")
	dir := fs.String("dir", "", "directory for generated inputs and outputs")
	seconds := fs.Float64("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "shpbench: -dir is required")
		os.Exit(2)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shpbench:", err)
		os.Exit(2)
	}
	switch mode {
	case "gen":
		err = w.gen(defaultParams, *seed, *dir)
	case "run":
		err = runWorkload(w, defaultParams, *seed, *dir, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	default:
		err = fmt.Errorf("unknown mode %q", mode)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "shpbench %s %s: %v\n", mode, *name, err)
		os.Exit(1)
	}
}

// measure runs a workload and returns its results without printing them.
func measure(w workload, p params, seed uint64, dir string, seconds time.Duration, traced bool) (*results, *tracer, error) {
	e := &env{
		p:       p,
		seed:    seed,
		dir:     dir,
		seconds: seconds,
		traced:  traced,
		nproc:   runtime.NumCPU(),
		tr:      newTracer(),
		res:     newResults(),
	}
	if err := w.run(e); err != nil {
		return nil, nil, err
	}
	if e.res.attempted == 0 {
		return nil, nil, fmt.Errorf("no operation attempted")
	}
	if e.perOpRSS {
		// Per-operation peaks cluster around a few values set by where
		// garbage collections fall; their mean is steadier than a median
		// that can jump between clusters.
		e.res.set("peak_rss_mb", sum(e.rss)/float64(len(e.rss)))
	} else {
		e.res.set("peak_rss_mb", peakRSSMB())
	}
	if traced {
		self := e.tr.selfTimes()
		for _, l := range []string{"hgio", "hypergraph", "core", "partition", "serve", "distshp"} {
			e.res.set(l+".self_s", self[l].Seconds())
		}
		e.res.set("trace.spans", float64(len(e.tr.spans)))
	}
	return e.res, e.tr, nil
}

func runWorkload(w workload, p params, seed uint64, dir string, seconds time.Duration, traced bool) error {
	res, tr, err := measure(w, p, seed, dir, seconds, traced)
	if err != nil {
		return err
	}
	res.print(w.name+" end-to-end, untraced operations", endToEnd)
	if !traced {
		return res.emit(w.name, endToEnd)
	}
	res.print(w.name+" per-layer, traced operations", perLayer)
	path := filepath.Join(dir, "..", "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "trace: spans written to %s\n", path)
	return res.emit(w.name, perLayer)
}
