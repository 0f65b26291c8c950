// Command bench is the repository's benchmark: four named workloads
// against a real pdpd, exact percentiles, every answer checked against a
// closed-form oracle, and a separate traced pass whose layer ladder
// explains the end-to-end number. See README.md; run through run.sh, which
// builds this package and cmd/pdpd inside the checkout:
//
//	bash bench/run.sh --workload hit.open --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --compare bench/out/a.json bench/out/b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: hit.open, miss.closed, batch.closed or churn.mixed")
		seed    = flag.Int64("seed", 1, "seeds every generated input")
		seconds = flag.Int("seconds", 12, "length of the timed window")
		traced  = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced pass, per-layer metrics")
		pdpd    = flag.String("pdpd", "", "path of the pdpd binary under test (run.sh builds and passes it)")
		compare = flag.Bool("compare", false, "compare two sets of output files: -compare a.json[,a2.json...] b.json[,b2.json...]")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two comma-separated lists of output files"))
		}
		if err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || *pdpd == "" || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("need -pdpd, -seconds >= 1 and -trace 0 or 1"))
	}
	bin, err := filepath.Abs(*pdpd)
	if err != nil {
		fatal(err)
	}
	killLiveOnSignal()
	r := &run{w: w, seed: *seed, seconds: *seconds, traced: *traced == 1, bin: bin, phases: map[string]float64{}}
	rep, err := r.execute()
	if err != nil {
		fatal(err)
	}
	if err := rep.emit(os.Stdout); err != nil {
		fatal(err)
	}
	if !rep.Result.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// run is one invocation: one workload, one seed, untraced or traced.
type run struct {
	w       spec
	seed    int64
	seconds int
	traced  bool
	bin     string

	dir    string             // scratch directory inside the checkout, removed at the end
	in     *inputs            // generated from the seed before any daemon starts
	phases map[string]float64 // wall seconds per phase, for the output file
}

// phase times fn and records it under name.
func (r *run) phase(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	r.phases[name] += time.Since(start).Seconds()
	return err
}

func (r *run) execute() (*report, error) {
	// Everything the run writes stays inside the checkout: scratch under
	// .bench_build, results under bench/out.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if r.dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	err = r.phase("generate_inputs", func() (err error) {
		if r.in, err = generate(r.w, r.seed, r.seconds); err != nil {
			return err
		}
		if err = os.WriteFile(r.path("seed.json"), r.in.policy, 0o644); err != nil {
			return err
		}
		return os.WriteFile(r.path("subjects.json"), r.in.subjects, 0o644)
	})
	if err != nil {
		return nil, err
	}
	rep := newReport(r)
	if r.traced {
		err = r.tracedPass(rep)
	} else {
		err = r.untracedRun(rep)
	}
	if err != nil {
		return nil, err
	}
	rep.Phases = r.phases
	return rep, rep.write()
}

func (r *run) path(name string) string { return filepath.Join(r.dir, name) }

// setUp spawns a daemon and warms it; the returned seconds are setup_s:
// spawn → /healthz (the seed base has gone through pap.Store, one fsync
// per policy) → warm-up complete. The warm-up replies are oracle-checked
// after the clock stops.
func (r *run) setUp(traceSample float64) (*daemon, float64, error) {
	start := time.Now()
	d, err := spawn(r.bin, r.dir, r.path("seed.json"), r.path("subjects.json"), traceSample)
	if err != nil {
		return nil, 0, err
	}
	// Warm-up is always a plain closed loop over every connection the
	// benchmark may open, whatever the timed traffic looks like.
	warm := window{w: r.w, url: d.url(""), calls: r.in.warm, seconds: 600}
	warm.w.clients, warm.w.openRate, warm.w.writesPerS = maxConns, 0, 0
	tr := warm.run()
	took := time.Since(start).Seconds()
	if t := verify(r.w, r.in.warm, tr); t.failed() != 0 || t.attempted == 0 {
		d.stop()
		return nil, 0, fmt.Errorf("warm-up: %d of %d decisions failed (%s)", t.failed(), t.attempted, t.reasons())
	}
	return d, took, nil
}

// measured is one timed window with the boundary readings around it.
type measured struct {
	traffic traffic
	tally   *tally
	before  counts
	after   counts
	cpu     float64 // daemon CPU seconds consumed inside the window
	rssMB   float64 // daemon VmHWM at window end
	client  float64 // bench's own CPU seconds inside the window
}

// measure runs one timed window against d. Counters, CPU and RSS are read
// immediately outside the window; replies are verified after it.
func (r *run) measure(d *daemon, seconds float64) (*measured, error) {
	m := &measured{}
	var err error
	if m.before, err = d.scrape(); err != nil {
		return nil, err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	own0 := ownCPUSeconds()
	win := window{w: r.w, url: d.url(""), calls: r.in.calls, cyclic: r.in.cyclic, writes: r.in.writes, seconds: seconds, seed: r.seed}
	_ = r.phase("window", func() error { m.traffic = win.run(); return nil })
	m.client = ownCPUSeconds() - own0
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	m.cpu = cpu1 - cpu0
	if m.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	if m.after, err = d.scrape(); err != nil {
		return nil, err
	}
	_ = r.phase("verify", func() error { m.tally = verify(r.w, r.in.calls, m.traffic); return nil })
	if m.tally.attempted == 0 {
		return nil, fmt.Errorf("window recorded no decisions")
	}
	return m, nil
}

// untracedRun is the --trace 0 pass: the end-to-end numbers. It sets the
// deployment up w.setups times (setup_s is the median) and runs the one
// timed window on the last.
func (r *run) untracedRun(rep *report) error {
	var d *daemon
	setups := make([]float64, 0, r.w.setups)
	err := r.phase("setup", func() error {
		for i := 0; i < r.w.setups; i++ {
			if d != nil {
				d.stop()
			}
			var took float64
			var err error
			if d, took, err = r.setUp(0); err != nil {
				return err
			}
			setups = append(setups, took)
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer d.stop()
	m, err := r.measure(d, float64(r.seconds))
	if err != nil {
		return err
	}
	sort.Float64s(setups)
	return rep.endToEnd(m, setups[len(setups)/2], len(setups))
}

// tracedPass is the --trace 1 pass: the per-layer numbers, measured from
// outside the program three ways. (a) The workload runs for half the
// window against an untraced daemon with /stats and /metrics scraped
// either side: the boundary counts. (b) It runs for the other half against
// a daemon started with -trace-sample 1: the p50 difference is the tracing
// overhead. (c) The stream's head is replayed in-process through the
// ladder. End-to-end numbers are never taken from this pass.
func (r *run) tracedPass(rep *report) error {
	half := float64(r.seconds) / 2
	var windows [2]*measured
	for i, sample := range []float64{0, 1} {
		var d *daemon
		if err := r.phase("setup", func() (err error) {
			d, _, err = r.setUp(sample)
			return err
		}); err != nil {
			return err
		}
		var err error
		windows[i], err = r.measure(d, half)
		d.stop()
		if err != nil {
			return err
		}
	}
	l := newLadder(r.w, r.seed)
	var times *layerTimes
	if err := r.phase("ladder", func() (err error) {
		if times, err = l.run(r.dir); err != nil {
			return err
		}
		if err = os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		return l.writeTrace(filepath.Join(outDir, "trace-"+r.w.name+".json"))
	}); err != nil {
		return err
	}
	rep.Ladder = l.rungs
	return rep.perLayer(windows[0], windows[1], times)
}
