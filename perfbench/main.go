// Command perfbench is the end-to-end and per-layer benchmark of the HEX
// simulator and its serving stack. One invocation runs one workload for a
// fixed measurement time, checks every output it receives, and prints one
// JSON result line:
//
//	perfbench --workload serve --seed 1 --seconds 15 --trace 0 --hexd .bench_build/hexd
//
// --trace 0 measures the workload's end-to-end metrics with nothing but the
// program under test doing work. --trace 1 replays the inputs of every
// workload, and the large inputs, by calling each layer directly, records
// a span around every call, and reports the per-layer metrics derived
// from those spans, named "<replay>.<metric>". See README.md for the
// workloads, the metrics, and why each exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome accumulates a run's operation counts, check failures and
// metrics.
type outcome struct {
	attempted int
	failed    int
	// broken records a check that voids the whole run (a counter
	// mismatch, a replica that disagrees with the library) rather than
	// one operation.
	broken  []string
	metrics map[string]metric
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

// op counts one attempted operation, failed when err is non-nil. The
// first few failures are echoed to stderr so a failing run explains
// itself.
func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
		}
	}
}

// breakf marks the run as not correct.
func (o *outcome) breakf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	o.broken = append(o.broken, msg)
	fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", msg)
}

func (o *outcome) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		o.breakf("metric %s is not a number", name)
		return
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// config is everything a workload needs from the command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	hexd     string
	workDir  string
}

// workloads maps each workload name to its untraced runner. The traced
// run (trace.go) replays these and the large inputs.
var workloads = map[string]func(cfg config, o *outcome) error{
	"paper":    runPaper,
	"serve":    runServe,
	"campaign": runCampaign,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: paper, serve or campaign")
		seed     = flag.Uint64("seed", 1, "input seed; equal seeds give equal inputs")
		seconds  = flag.Float64("seconds", 15, "measurement time in seconds")
		traced   = flag.Int("trace", 0, "1 replays the workload through each layer with spans and prints per-layer metrics")
		hexd     = flag.String("hexd", ".bench_build/hexd", "hexd binary built from cmd/hexd")
		workRoot = flag.String("work", ".bench_build", "directory for stores and logs; a per-run subdirectory is removed at exit")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	workDir, err := os.MkdirTemp(*workRoot, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(workDir)
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, hexd: *hexd, workDir: workDir}

	printHost(cfg, *traced)
	steal0, total0, stealErr := hostSteal()
	o := newOutcome()
	if *traced == 1 {
		run = runTraced
	}
	if err := run(cfg, o); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.RemoveAll(workDir)
		os.Exit(1)
	}
	if o.attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		os.RemoveAll(workDir)
		os.Exit(1)
	}
	if steal1, total1, err := hostSteal(); stealErr == nil && err == nil && total1 > total0 {
		fmt.Fprintf(os.Stderr, "perfbench: hypervisor steal %.1f %% of host CPU time during the run\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	line, err := json.Marshal(result{
		Correct:   len(o.broken) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   o.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printHost prints the run's provenance on its own line, before the
// result: a number is only comparable to another from the same host,
// toolchain, commit and seed.
func printHost(cfg config, traced int) {
	// run.py passes the checkout's commit; a checkout that is not a git
	// repository has none.
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	host := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
	}
	b, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(b))
}

// rounds converts the measurement time into a fixed number of rounds at
// a workload's nominal pace on the reference host (README.md). The work
// of a run is then the same however fast the host runs it, so peak memory
// and everything that grows with work done compare between runs; the
// run takes about --seconds on the reference host.
func rounds(seconds, perSecond float64) int {
	n := int(math.Round(seconds * perSecond))
	if n < 1 {
		n = 1
	}
	return n
}

// A workload sets itself up setupBefore times before its timed window,
// the last of these passes leaving the state the window uses, and
// setupAfter times after the window; setup_s is the median pass. Passes
// on both sides of the window sample the host over the whole run, as the
// window's own metrics do, and not only over its first seconds.
const (
	setupBefore = 3
	setupAfter  = 2
)

// setupTimer runs and times a workload's set-up passes. pass does one
// set-up; p numbers the passes from 0, so a pass can make inputs of its
// own, and keep is true for the pass whose state the timed window uses.
//
// A pass is timed in CPU time, for the reason cpu_ms_per_op is: on a
// shared host its wall time follows the hypervisor's steal (README.md).
// It counts this process and every hexd the pass runs; kept, when set,
// points at the hexd the keep pass leaves running. Each pass's wall time
// is logged.
type setupTimer struct {
	pass   func(p int, keep bool) error
	kept   **hexdProc
	passes []float64 // CPU seconds
	walls  []float64 // wall seconds
}

// before runs the passes that precede the timed window. The first also
// carries the CPU time from process start to its own start.
func (s *setupTimer) before() error {
	if err := s.run(setupBefore); err != nil {
		return err
	}
	total, err := s.cpu()
	if err != nil {
		return err
	}
	s.passes[0] += total.Seconds() - sum(s.passes)
	return nil
}

// after runs the passes that follow the timed window and returns the
// median of all passes in seconds.
func (s *setupTimer) after() (float64, error) {
	if err := s.run(setupAfter); err != nil {
		return 0, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: setup passes CPU %.3f s, wall %.3f s\n", s.passes, s.walls)
	return median(s.passes), nil
}

func (s *setupTimer) run(n int) error {
	for i := 0; i < n; i++ {
		p := len(s.passes)
		t0 := time.Now()
		c0, err := s.cpu()
		if err != nil {
			return err
		}
		if err := s.pass(p, p == setupBefore-1); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		c1, err := s.cpu()
		if err != nil {
			return err
		}
		s.walls = append(s.walls, time.Since(t0).Seconds())
		s.passes = append(s.passes, (c1 - c0).Seconds())
	}
	return nil
}

// cpu is the CPU time used so far by this process, by the hexd processes
// it has waited for, and by the kept hexd while it runs (once waited
// for, its time is in RUSAGE_CHILDREN).
func (s *setupTimer) cpu() (time.Duration, error) {
	var self, children syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &children)
	d := time.Duration(self.Utime.Nano() + self.Stime.Nano() + children.Utime.Nano() + children.Stime.Nano())
	if s.kept != nil && *s.kept != nil && (*s.kept).running() {
		live, err := procCPU((*s.kept).pid())
		if err != nil {
			return 0, err
		}
		d += live
	}
	return d, nil
}

// logWall writes a closed loop's wall time per operation, each round's
// and their median, to stderr. It is not an end-to-end metric: on a
// shared host it follows how much CPU time the hypervisor steals, which
// the run's steal line reports (README.md).
func logWall(workload string, perRound []float64) {
	fmt.Fprintf(os.Stderr, "perfbench: %s wall ms/op median %.4f, rounds %.3f\n", workload, median(perRound), perRound)
}

// errMismatch reports a response that differs from the one it must equal.
var errMismatch = errors.New("response differs from its reference")

// subdir creates a fresh directory for the workload under the run's work
// directory.
func subdir(cfg config, name string) (string, error) {
	dir := filepath.Join(cfg.workDir, cfg.workload+"-"+name)
	return dir, os.MkdirAll(dir, 0o755)
}
