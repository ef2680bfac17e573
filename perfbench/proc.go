package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is the unit of utime and stime in /proc/<pid>/stat
// (USER_HZ, 100 on Linux).
const clockTick = 10 * time.Millisecond

// stopTimeout bounds how long a child gets to exit after SIGTERM before
// it is killed and counted as a failure.
const stopTimeout = 15 * time.Second

// buildServe compiles nvmserve from the tree under test into dir.
func buildServe(dir string) (string, error) {
	bin := filepath.Join(dir, "nvmserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/nvmserve")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building nvmserve: %w", err)
	}
	return bin, nil
}

// freePort asks the kernel for a free loopback port. nvmserve prints its
// configured address, not the bound one, so the benchmark picks the
// port itself.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// proc is one program process the benchmark started.
type proc struct {
	name string
	cmd  *exec.Cmd
	out  bytes.Buffer
	done chan struct{}
	err  error
}

// running holds the processes started and not yet ended, so that an
// interrupted benchmark can stop them before it exits.
var running = struct {
	sync.Mutex
	procs map[*proc]bool
}{procs: map[*proc]bool{}}

// launch starts bin with args; its output is kept for diagnostics.
func launch(name, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, cmd: exec.Command(bin, args...), done: make(chan struct{})}
	p.cmd.Stdout, p.cmd.Stderr = &p.out, &p.out
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	running.Lock()
	running.procs[p] = true
	running.Unlock()
	go func() {
		p.err = p.cmd.Wait()
		running.Lock()
		delete(running.procs, p)
		running.Unlock()
		close(p.done)
	}()
	return p, nil
}

// stopRunning stops every process still running.
func stopRunning() {
	running.Lock()
	var g group
	for p := range running.procs {
		g = append(g, p)
	}
	running.Unlock()
	g.stop()
}

// exited reports whether the process has ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop sends SIGTERM and waits for the process to end. A process that
// outlives stopTimeout is killed; that, or any non-zero exit, is an
// error.
func (p *proc) stop() error {
	if !p.exited() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // it may exit on its own meanwhile
	}
	select {
	case <-p.done:
	case <-time.After(stopTimeout):
		_ = p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("%s: still running %v after SIGTERM, killed", p.name, stopTimeout)
	}
	if p.err != nil {
		return fmt.Errorf("%s: %v; output:\n%s", p.name, p.err, tail(p.out.String(), 2000))
	}
	return nil
}

func tail(s string, n int) string {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}

// cpu returns the process's user plus system CPU time.
func (p *proc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("%s: short /proc stat", p.name)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("%s: bad /proc stat", p.name)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// memKB returns a /proc/<pid>/status memory field (VmRSS, VmHWM) in KiB.
func (p *proc) memKB(field string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s in /proc status", p.name, field)
}

// group is the set of program processes of one deployment.
type group []*proc

func (g group) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, p := range g {
		c, err := p.cpu()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

func (g group) memKB(field string) (int64, error) {
	var sum int64
	for _, p := range g {
		v, err := p.memKB(field)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// stop stops every process, last started first, and joins their errors.
func (g group) stop() []error {
	var errs []error
	for i := len(g) - 1; i >= 0; i-- {
		if err := g[i].stop(); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
