// Command perfbench is the repository benchmark: it sweeps one workload's
// seeded trials through the library's own sweep engine and prints, as its
// last line, one JSON object with the run's metrics.
//
//	bash perfbench/run.sh --workload attack --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it measures the end-to-end metrics (throughput,
// allocations, memory, set-up time, attack outcome) and checks the
// outputs: every trial must complete, a checked pass re-runs the first
// trials unpooled with invariant checking armed and must find no
// violation, and its results digest must equal the timed run's. With
// --trace 1 it measures the per-layer metrics from outside the program:
// public stats getters on testbeds it builds itself, and kernels that
// time each module's public functions on the traced trials' own inputs.
// METRICS.md lists every metric with its source.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workers is the sweep's worker count, and the process runs on as many
// Ps. The benchmark runs on a few vCPUs of a shared host that does not
// always give all of them: with a worker per vCPU, throughput followed the
// CPU time the host withheld (steal) and ten runs spread by up to half
// their median. One worker asks for one vCPU and leaves the rest to the
// host's other work.
const workers = 1

// runParams are one invocation's settings.
type runParams struct {
	seed    int64
	seconds time.Duration
	workers int
	// setups is how many times the timed run repeats its set-up.
	setups int
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: attack, fleet or crosstraffic")
	seed := fs.Int64("seed", 1, "base seed of the run's trials")
	seconds := fs.Int("seconds", 30, "how long the run measures")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	runtime.GOMAXPROCS(workers)
	p := runParams{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		workers: workers, setups: 3}
	fmt.Fprintln(stdout, provenance(wl, p))
	var line string
	var correct bool
	var err error
	switch *traced {
	case 0:
		line, correct, err = runTimed(wl, p, stdout)
	case 1:
		line, correct, err = runTraced(wl, p, stdout)
	default:
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, line)
	if !correct {
		return fmt.Errorf("%s: outputs failed the correctness checks above", wl.name)
	}
	return nil
}

// provenance names the host, toolchain and code a run measured.
func provenance(wl workload, p runParams) string {
	return fmt.Sprintf("perfbench host gomaxprocs=%d numcpu=%d go=%s goos=%s goarch=%s workers=%d workload=%s seed=%d commit=%s source=%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		p.workers, wl.name, p.seed, commit(), sourceDigest())
}

// commit is the git commit of the working directory when it is the top of
// a git checkout, "none" otherwise (the benchmark may run from an export).
func commit() string {
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	wd, werr := os.Getwd()
	if err != nil || werr != nil || strings.TrimSpace(string(top)) != wd {
		return "none"
	}
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(head))
}

// sourceDigest hashes the program's Go sources under the working directory
// (the benchmark's own directory and build output excluded), so a run names
// the code it measured even where there is no git metadata.
func sourceDigest() string {
	var files []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || path == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || path == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unreadable"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unreadable"
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%d-go-files:%s", len(files), hex.EncodeToString(h.Sum(nil))[:16])
}

// launchOffset is the time from process launch (stamped by run.sh just
// before exec) to now; 0 when the stamp is absent.
func launchOffset() time.Duration {
	ns, err := strconv.ParseInt(os.Getenv("PERFBENCH_LAUNCH_NS"), 10, 64)
	if err != nil {
		return 0
	}
	if d := time.Since(time.Unix(0, ns)); d > 0 {
		return d
	}
	return 0
}

// readMetrics samples runtime/metrics by name.
func readMetrics(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// allocObjects is the process's cumulative heap allocation count.
func allocObjects() uint64 {
	return readMetrics("/gc/heap/allocs:objects")[0].Value.Uint64()
}

// cpuSeconds reports the process's cumulative GC and total CPU time as the
// runtime accounts them.
func cpuSeconds() (gc, total float64) {
	s := readMetrics("/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds")
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// heapWatch samples the live heap (as of the latest GC) every 5 ms, so its
// median is a time-weighted typical footprint.
type heapWatch struct {
	stop, done chan struct{}
	samples    []float64 // MB
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			h.samples = append(h.samples, float64(readMetrics("/gc/heap/live:bytes")[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the watch and returns the peak and the median (over time)
// of the live heap it saw.
func (h *heapWatch) finish() (peak, med float64) {
	close(h.stop)
	<-h.done
	for _, v := range h.samples {
		peak = math.Max(peak, v)
	}
	return peak, median(h.samples)
}

// processCPU is the CPU time the process has run, user and system.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles are xs's first quartile, median and third quartile.
func quartiles(xs []float64) [3]float64 {
	return [3]float64{quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)}
}

// quantile interpolates linearly between the closest ranks of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
