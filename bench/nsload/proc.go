package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// startTimeout bounds how long a child may take to print its serving line.
const startTimeout = 60 * time.Second

// goBuild builds the main package pkg of the module at dir into out/bin.
func goBuild(dir, out, pkg string) (string, error) {
	bin := out + "/bin/" + path.Base(pkg)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = dir
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %s: %v\n%s", pkg, err, msg)
	}
	return bin, nil
}

// live is every nsd process running and every temporary directory in use,
// so that exit paths which cannot unwind (a timeout, a signal, a fatal
// error) still leave neither behind.
var live = struct {
	sync.Mutex
	procs map[*child]struct{}
	dirs  map[string]struct{}
}{procs: map[*child]struct{}{}, dirs: map[string]struct{}{}}

// abandon kills every child and removes every temporary directory.
func abandon() {
	live.Lock()
	defer live.Unlock()
	for p := range live.procs {
		_ = p.cmd.Process.Kill()
	}
	for d := range live.dirs {
		os.RemoveAll(d)
	}
}

// tempDir makes a directory that abandon will remove.
func tempDir(parent, pattern string) (string, error) {
	dir, err := os.MkdirTemp(parent, pattern)
	if err == nil {
		live.Lock()
		live.dirs[dir] = struct{}{}
		live.Unlock()
	}
	return dir, err
}

func removeDir(dir string) {
	os.RemoveAll(dir)
	live.Lock()
	delete(live.dirs, dir)
	live.Unlock()
}

// child is one running nsd (or the reference echo). The goroutine that
// forks it stays locked to its OS thread until the child exits: the child
// asks the kernel for SIGKILL when that thread dies, which covers every way
// the generator can end without running its deferred kills (panic on
// another goroutine, os.Exit, SIGKILL).
type child struct {
	cmd      *exec.Cmd
	addr     string     // single server: its address; sharded: the bootstrap member
	replicas [][]string // sharded: [shard][replica] addresses
	startup  time.Duration
	exited   chan struct{}
	waitErr  error
}

func startChild(bin string, args ...string) (*child, error) {
	p := &child{exited: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stderr = os.Stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	began := time.Now()
	started := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		if err := p.cmd.Start(); err != nil {
			started <- err
			return
		}
		live.Lock()
		live.procs[p] = struct{}{}
		live.Unlock()
		started <- nil
		// The reader below owns stdout until EOF; Wait must follow it.
		<-p.exited
	}()
	if err := <-started; err != nil {
		close(p.exited)
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}

	// Read the banner up to the line that means "accepting connections",
	// then keep draining so the child never blocks on a full pipe.
	serving := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if announced {
				continue
			}
			switch {
			case strings.HasPrefix(line, "nsd serving on "), strings.HasPrefix(line, "echo serving on "):
				p.addr = strings.Fields(line)[3]
				announced = true
			case strings.HasPrefix(line, "  shard "):
				p.replicas = append(p.replicas, strings.Fields(line)[2:])
			case strings.HasPrefix(line, "bootstrap: "):
				p.addr = strings.Fields(line)[4]
				announced = true
			}
			if announced {
				serving <- nil
			}
		}
		if !announced {
			serving <- fmt.Errorf("%s exited before serving", bin)
		}
		p.waitErr = p.cmd.Wait()
		live.Lock()
		delete(live.procs, p)
		live.Unlock()
		close(p.exited)
	}()
	select {
	case err := <-serving:
		if err != nil {
			<-p.exited
			return nil, err
		}
	case <-time.After(startTimeout):
		p.kill()
		return nil, fmt.Errorf("%s printed no serving line in %v", bin, startTimeout)
	}
	p.startup = time.Since(began)
	return p, nil
}

// terminate asks nsd to shut down gracefully (final snapshot included) and
// waits for it.
func (p *child) terminate() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(startTimeout):
		p.kill()
		return fmt.Errorf("nsd ignored SIGTERM for %v", startTimeout)
	}
	if p.waitErr != nil {
		return fmt.Errorf("nsd exit: %w", p.waitErr)
	}
	return nil
}

func (p *child) kill() {
	_ = p.cmd.Process.Kill()
	<-p.exited
}

// cpuUsed is the user and system CPU time the kernel accounted to an
// exited nsd.
func (p *child) cpuUsed() (user, sys time.Duration) {
	ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// peakRSS is the running nsd's resident-set high-water mark in MB. It is
// read from /proc and not from the exit rusage: a child forked as Go forks
// (vfork) starts its rusage maximum at the parent's resident set, so a
// generator bigger than nsd would report its own size.
func (p *child) peakRSS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// cpuNow reads the running nsd's user+system CPU time from /proc. The
// kernel counts in ticks of 10ms, fine against phases of many seconds.
func (p *child) cpuNow() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", data)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", data)
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on every Linux ABI
	return time.Duration(ut+st) * tick, nil
}
