package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hexdProc is one hexd process serving on a loopback port.
type hexdProc struct {
	cmd     *exec.Cmd
	base    string
	client  *http.Client
	exited  chan struct{}
	waitErr error
	logFile *os.File
	once    sync.Once
	stopErr error
}

// newClient returns an HTTP client that opens at most nproc connections:
// the load comes from one process with no more connections than cores.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		},
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startHexd launches bin with default flags apart from its address and
// store directory, and returns once /healthz answers.
func startHexd(bin, storeDir, logPath string) (*hexdProc, error) {
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("hexd binary: %w", err)
	}
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-store-dir", storeDir)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	// If the benchmark itself is killed, hexd goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	p := &hexdProc{cmd: cmd, base: "http://" + addr, client: newClient(), exited: make(chan struct{}), logFile: logFile}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := p.client.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-p.exited:
			logFile.Close()
			return nil, fmt.Errorf("hexd exited during start-up: %v (log %s)", p.waitErr, logPath)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, errors.New("hexd did not become healthy within 20s")
		}
	}
}

// hexdPass returns a set-up pass that launches hexd over the store
// directory storeDir(p) names, runs warm against it, and stops it, unless
// kept is non-nil and the pass is the one whose state the window uses:
// that hexd is left running in *kept.
func hexdPass(cfg config, storeDir func(p int) (string, error), logPath string, kept **hexdProc, warm func(h *hexdProc, p int) error) func(p int, keep bool) error {
	return func(p int, keep bool) error {
		dir, err := storeDir(p)
		if err != nil {
			return err
		}
		h, err := startHexd(cfg.hexd, dir, logPath)
		if err != nil {
			return err
		}
		if err := warm(h, p); err != nil {
			h.stop()
			return err
		}
		if keep && kept != nil {
			*kept = h
			return nil
		}
		return h.stop()
	}
}

// hexdLog is where the workload's hexd processes write their logs.
func hexdLog(cfg config) string { return filepath.Join(cfg.workDir, cfg.workload+"-hexd.log") }

// passStore gives every set-up pass a fresh store of its own, so each
// launches hexd over an empty store and all do the same work.
func passStore(cfg config) func(p int) (string, error) {
	return func(p int) (string, error) { return subdir(cfg, fmt.Sprint("store-", p)) }
}

// stop drains hexd with SIGTERM (in-flight requests and write-behind
// store writes finish) and waits for it to exit; it kills the process if
// the drain takes longer than 30 s.
// It is idempotent, so callers can both defer it and check its error.
func (p *hexdProc) stop() error {
	p.once.Do(func() {
		defer p.logFile.Close()
		p.client.CloseIdleConnections()
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.exited:
		case <-time.After(30 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.exited
			p.stopErr = errors.New("hexd did not drain within 30s")
			return
		}
		var ee *exec.ExitError
		if p.waitErr != nil && !errors.As(p.waitErr, &ee) {
			p.stopErr = p.waitErr
		}
	})
	return p.stopErr
}

func (p *hexdProc) pid() int { return p.cmd.Process.Pid }

// running reports whether hexd has not exited yet.
func (p *hexdProc) running() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// post sends a JSON body and returns the response body; any status but
// 200 and 202 is an error.
func (p *hexdProc) post(path string, body []byte) ([]byte, error) {
	resp, err := p.client.Post(p.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// counters scrapes /metrics. Scraping costs hexd one page render and is
// done only outside timed windows.
func (p *hexdProc) counters() (map[string]float64, error) {
	resp, err := p.client.Get(p.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseCounters(resp.Body)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns the user+system CPU time consumed so far by process
// pid, all threads included.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(b))
}

// parseProcStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may contain spaces,
// so fields are counted after its closing parenthesis.
func parseProcStatCPU(line string) (time.Duration, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(line[i+1:])
	// f[0] is field 3 (state), so utime is f[11] and stime f[12].
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat CPU fields")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// hostSteal returns the machine-wide CPU ticks the hypervisor stole from
// this VM and the ticks of every kind, from /proc/stat. Their deltas over
// a run say how much of the host's CPU time the run did not get, which
// moves every timing it reports.
func hostSteal() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseStealLine(line)
}

// parseStealLine reads the aggregate "cpu" line of /proc/stat: user,
// nice, system, idle, iowait, irq, softirq and steal. The guest fields
// after steal are already counted in user and nice.
func parseStealLine(line string) (steal, total uint64, err error) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat cpu line")
	}
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// peakRSSMiB returns the VmHWM (peak resident set) of process pid.
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
