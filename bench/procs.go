package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// binaries are the programs under test, built from this checkout.
type binaries struct {
	cli, daemon, coord string
}

// buildBinaries compiles the three commands into dir and reports how
// long go build took (seconds, near zero once the build cache is warm).
func buildBinaries(root, dir string) (binaries, float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return binaries{}, 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"./cmd/yardstick", "./cmd/yardstickd", "./cmd/yardstick-coord")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, 0, fmt.Errorf("go build: %v\n%s", err, out)
	}
	return binaries{
		cli:    filepath.Join(dir, "yardstick"),
		daemon: filepath.Join(dir, "yardstickd"),
		coord:  filepath.Join(dir, "yardstick-coord"),
	}, time.Since(start).Seconds(), nil
}

// children tracks every process the harness starts so that a signal, a
// panic or the watchdog can kill whatever is still alive.
type children struct {
	mu    sync.Mutex
	procs map[*exec.Cmd]struct{}
}

var kids = &children{procs: map[*exec.Cmd]struct{}{}}

func (c *children) add(cmd *exec.Cmd) {
	c.mu.Lock()
	c.procs[cmd] = struct{}{}
	c.mu.Unlock()
}

func (c *children) remove(cmd *exec.Cmd) {
	c.mu.Lock()
	delete(c.procs, cmd)
	c.mu.Unlock()
}

// killAll SIGKILLs every tracked child and waits, for up to five
// seconds, until their owners' Wait calls have reaped them all, so that
// no process of ours is left when the harness exits on a signal, a
// panic or the watchdog.
func (c *children) killAll() {
	c.mu.Lock()
	for cmd := range c.procs {
		_ = cmd.Process.Kill() // already-exited is fine
	}
	c.mu.Unlock()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		c.mu.Lock()
		n := len(c.procs)
		c.mu.Unlock()
		if n == 0 {
			return
		}
	}
}

// command builds a child command that dies with the harness even when
// the harness is SIGKILLed.
func command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// tail keeps the last lines a daemon wrote to stderr, for the failure
// report.
type tail struct {
	mu    sync.Mutex
	lines []string
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, strings.Split(strings.TrimRight(string(p), "\n"), "\n")...)
	if n := len(t.lines); n > 20 {
		t.lines = t.lines[n-20:]
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// daemon is one running yardstickd with the forwarder in front of it.
type daemon struct {
	cmd    *exec.Cmd
	fwd    *forwarder
	exited chan struct{} // closed once Wait returned
}

// url is the base URL clients use: the forwarder's, never the daemon's.
func (d *daemon) url() string { return "http://" + d.fwd.addr() }

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// startDaemon launches yardstickd with default flags apart from -listen
// and -net, learns the port it bound from its stdout, puts a forwarder
// in front and waits for /readyz.
func startDaemon(bin, netFile string) (*daemon, error) {
	cmd := command(bin, "-listen", "127.0.0.1:0", "-net", netFile)
	errTail := &tail{}
	cmd.Stderr = errTail
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	kids.add(cmd)
	d := &daemon{cmd: cmd, exited: make(chan struct{})}

	addrCh := make(chan string, 1)
	go func() {
		// Reads until the daemon closes stdout, i.e. until it exits.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "yardstickd listening on "); ok {
				select {
				case addrCh <- strings.TrimSpace(a):
				default:
				}
			}
		}
		_ = cmd.Wait() // exit status is irrelevant: stop() asked for it
		kids.remove(cmd)
		close(d.exited)
	}()

	fail := func(err error) (*daemon, error) {
		d.stop()
		return nil, fmt.Errorf("%w\n--- yardstickd stderr ---\n%s", err, errTail)
	}
	select {
	case addr := <-addrCh:
		if d.fwd, err = newForwarder(addr); err != nil {
			return fail(err)
		}
	case <-d.exited:
		return fail(errors.New("yardstickd exited before listening"))
	case <-time.After(30 * time.Second):
		return fail(errors.New("yardstickd did not report its address within 30s"))
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.url() + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return fail(errors.New("yardstickd exited before becoming ready"))
		default:
		}
		if time.Now().After(deadline) {
			return fail(errors.New("yardstickd not ready within 30s"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop terminates the daemon (SIGTERM, then SIGKILL after 5 s), waits
// until it has exited and closes the forwarder. Safe to call twice.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	if d.fwd != nil {
		d.fwd.close() // sever keep-alive connections so the drain is immediate
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// procCPU reads a live process's CPU seconds (user+sys) from /proc.
func procCPU(pid int) (float64, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, i.e. 12 and 13 after ") ".
	i := bytes.LastIndexByte(stat, ')')
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 14 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	const clkTck = 100 // USER_HZ is 100 on every Linux ABI
	return (ut + st) / clkTck, nil
}

// procHWM reads a live process's resident high-water mark in MB. It is
// the mark of the address space the program got at exec, unlike
// rusage's Maxrss, which on Linux starts from the parent's — here the
// harness's, which holds whole networks — at the moment of the fork.
func procHWM(pid int) (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(v)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid) // a zombie has none
}

// procUsage is procCPU and procHWM of a daemon.
func procUsage(pid int) (cpu, hwmMB float64, err error) {
	if cpu, err = procCPU(pid); err != nil {
		return 0, 0, err
	}
	hwmMB, err = procHWM(pid)
	return cpu, hwmMB, err
}

// runResult of one exec'd program under test.
type execResult struct {
	stdout   []byte
	stderr   []byte
	wallMS   float64
	cpu      float64 // user+sys seconds
	rssMB    float64
	exitCode int
}

// runProgram runs a batch program to completion and reads its rusage.
func runProgram(ctx context.Context, bin string, args ...string) (execResult, error) {
	cmd := command(bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return execResult{}, err
	}
	kids.add(cmd)
	// The high-water mark can only be read while the process lives, so
	// it is sampled; the mark itself is monotonic, which makes the last
	// sample before exit the peak to within one sampling period.
	done := make(chan struct{})
	sampled := make(chan float64, 1)
	go func() {
		var hwm float64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				_ = cmd.Process.Kill()
			case <-done:
				sampled <- hwm
				return
			case <-tick.C:
				if v, err := procHWM(cmd.Process.Pid); err == nil {
					hwm = max(hwm, v)
				}
			}
		}
	}()
	err := cmd.Wait()
	close(done)
	kids.remove(cmd)
	res := execResult{stdout: out.Bytes(), stderr: errb.Bytes(),
		wallMS: float64(time.Since(start).Microseconds()) / 1000, rssMB: <-sampled}
	if ps := cmd.ProcessState; ps != nil {
		res.exitCode = ps.ExitCode()
		res.cpu = ps.UserTime().Seconds() + ps.SystemTime().Seconds()
	}
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		return res, err
	}
	return res, nil
}

// selfCPU is the harness's own user+sys CPU seconds so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
