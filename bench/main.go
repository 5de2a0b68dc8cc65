// Command bench is the Yardstick benchmark: it builds the real binaries
// (yardstick, yardstickd, yardstick-coord) from this checkout, generates
// every input from a seed, drives five workloads against those binaries
// from outside, checks every output against an in-process oracle and
// prints every metric by name with its unit. README.md in this
// directory says what is measured and why; BENCHMARK.json at the
// repository root is the contract the numbers are judged by.
//
//	go run -C bench yardstick/bench -seed 1                       # all workloads, end to end
//	go run -C bench yardstick/bench -seed 1 -traced               # all workloads, per layer
//	go run -C bench yardstick/bench -workload service_mix -seed 7 -seconds 12 -trace 0
//	go run -C bench yardstick/bench -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runSeconds is how long one run measures unless -seconds says
// otherwise; BENCHMARK.json records the same number.
const runSeconds = 12

// watchdog bounds one invocation of one workload run: the contract
// allows 180 s, and a hung child must not outlive it.
const watchdog = 170 * time.Second

// hostInfo is recorded with every results file: numbers from another
// host shape are not comparable.
type hostInfo struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	LoadAvg    string `json:"loadavg"`
}

func readHost() hostInfo {
	h := hostInfo{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		h.LoadAvg = strings.TrimSpace(string(b))
	}
	return h
}

// resultsFile is what -o (default out/results.json) holds: one set of
// runs.
type resultsFile struct {
	Host hostInfo     `json:"host"`
	Runs []*runResult `json:"runs"`
}

// findRoot walks up from dir to the directory whose go.mod declares the
// yardstick module.
func findRoot(dir string) (string, error) {
	for d := dir; ; d = filepath.Dir(d) {
		if b, err := os.ReadFile(filepath.Join(d, "go.mod")); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if strings.TrimSpace(line) == "module yardstick" {
					return d, nil
				}
			}
		}
		if d == filepath.Dir(d) {
			return "", errors.New("no go.mod declaring module yardstick above " + dir)
		}
	}
}

func main() {
	os.Exit(run())
}

func run() (code int) {
	var (
		workloadArg = flag.String("workload", "", "run one workload (default: all five)")
		seed        = flag.Int64("seed", 1, "seed for every generated input")
		seconds     = flag.Int("seconds", runSeconds, "how long one run measures")
		trace       = flag.Int("trace", 0, "1 = the traced run: per-layer metrics instead of end-to-end ones")
		traced      = flag.Bool("traced", false, "same as -trace 1")
		runs        = flag.Int("runs", 1, "repeat each workload this many times, on seeds seed, seed+1, ...")
		outPath     = flag.String("o", "", "results file (default out/results.json, or out/results-traced.json)")
		compare     = flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
		golden      = flag.Bool("update-golden", false, "rewrite golden/seed1.json from this run's oracles (seed 1 only)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants two results files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if *traced {
		*trace = 1
	}
	names := []string{*workloadArg}
	if *workloadArg == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if _, ok := findWorkload(*workloadArg); !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadArg)
		return 2
	}
	if *seconds < 1 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -runs must be at least 1")
		return 2
	}
	// The load shape is two clients and up to two busy daemons; on one
	// core the harness and the programs would time each other.
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(os.Stderr, "bench: refusing to run on fewer than 2 cores")
		return 1
	}

	cwd, err := os.Getwd()
	var root string
	if err == nil {
		root, err = findRoot(cwd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	benchDir := filepath.Join(root, "bench")
	outDir := filepath.Join(benchDir, "out")
	e := &env{benchDir: benchDir, golden: *golden}
	if e.runDir, err = mkRunDir(outDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	// Whatever happens — signal, panic, watchdog — no child survives and
	// the scratch directory goes.
	cleanup := func() {
		kids.killAll()
		os.RemoveAll(e.runDir)
	}
	defer cleanup() // runs on a panic too
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "bench: interrupted, stopping children")
		cleanup()
		os.Exit(130)
	}()

	if e.bins, e.buildS, err = buildBinaries(root, filepath.Join(outDir, "bin")); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("%-28s %10.3f s\n", "bench.build_s", e.buildS)

	file := resultsFile{Host: readHost()}
	var calibs []float64
	failed := false
	for r := 0; r < *runs; r++ {
		for _, name := range names {
			timer := time.AfterFunc(watchdog, func() {
				fmt.Fprintf(os.Stderr, "bench: %s exceeded %s, stopping children\n", name, watchdog)
				cleanup()
				os.Exit(1)
			})
			var res *runResult
			if *trace == 1 {
				res, err = runTraced(e, name, *seed+int64(r), *seconds, &calibs)
			} else {
				res, err = runUntraced(e, name, *seed+int64(r), *seconds, &calibs)
			}
			timer.Stop()
			if err != nil {
				// No result line: a run that could not measure must not
				// look like one that measured.
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			printResult(res)
			file.Runs = append(file.Runs, res)
			failed = failed || !res.Correct
		}
	}

	if *outPath == "" {
		*outPath = filepath.Join(outDir, "results.json")
		if *trace == 1 {
			*outPath = filepath.Join(outDir, "results-traced.json")
		}
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = os.WriteFile(*outPath, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("\nresults: %s\n", *outPath)
	// The driver reads the last line of standard output.
	fmt.Println(contractLine(file.Runs[len(file.Runs)-1]))
	if failed {
		return 1
	}
	return 0
}

// mkRunDir creates this invocation's scratch directory under out/.
func mkRunDir(outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "run-")
}
