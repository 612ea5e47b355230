package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
)

// buildBinaries compiles the programs the end-to-end runs execute as
// users do, into dir. Build time is never part of a metric.
func buildBinaries(ctx context.Context, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator),
		"metablocking/cmd/serve", "metablocking/cmd/metablock")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build cmd/serve cmd/metablock: %w\n%s", err, out)
	}
	return nil
}

// child is one process of the program under test. The context it was
// started under kills it if the harness is interrupted; stop is the
// normal way out and always reaps it.
type child struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait has returned
	err  error         // Wait's result, valid after done
	// peakKB is the largest resident-set high-water mark sampled from
	// /proc while the process lived.
	peakKB atomic.Int64
}

func startChild(ctx context.Context, logPath, bin string, args ...string) (*child, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	go func() {
		c.err = cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// stop samples the process's peak resident set, sends sig (unless the
// process already exited), waits for it, and returns the peak in MB.
func (c *child) stop(sig syscall.Signal) (peakRSSMB float64, err error) {
	select {
	case <-c.done:
	default:
		c.sampleRSS()
		c.cmd.Process.Signal(sig) // a process that exits meanwhile is reaped below
		<-c.done
	}
	return c.peakRSSMB(), c.err
}

var vmHWM = regexp.MustCompile(`VmHWM:\s+(\d+) kB`)

// sampleRSS reads the process's resident-set high-water mark from
// /proc/<pid>/status. The ru_maxrss that Wait returns cannot be used: a
// child started by vfork+exec inherits the parent's peak as its floor, and
// the harness, holding the inputs and the oracle, is the larger process.
func (c *child) sampleRSS() {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return // already gone: keep the last sample
	}
	if m := vmHWM.FindSubmatch(b); m != nil {
		if kb, err := strconv.ParseInt(string(m[1]), 10, 64); err == nil && kb > c.peakKB.Load() {
			c.peakKB.Store(kb)
		}
	}
}

func (c *child) peakRSSMB() float64 { return float64(c.peakKB.Load()) / 1024 }

var listenRE = regexp.MustCompile(`serve: listening on (http://\S+)`)

// serveChild is a running cmd/serve and its base URL.
type serveChild struct {
	*child
	base string
}

// startServe launches cmd/serve on a kernel-chosen port and returns once
// /readyz answers 200 — by then a -snapshot is loaded or a disk
// directory recovered, because the binary listens only after both.
func startServe(ctx context.Context, bin, logPath string, args ...string) (*serveChild, error) {
	c, err := startChild(ctx, logPath, bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	if err != nil {
		return nil, err
	}
	s := &serveChild{child: c}
	deadline := time.Now().Add(60 * time.Second)
	fail := func(msg string) (*serveChild, error) {
		c.stop(syscall.SIGKILL)
		b, _ := os.ReadFile(logPath)
		return nil, fmt.Errorf("cmd/serve %s: %s", msg, bytes.TrimSpace(b))
	}
	for s.base == "" {
		b, _ := os.ReadFile(logPath)
		if m := listenRE.FindSubmatch(b); m != nil {
			s.base = string(m[1])
			break
		}
		select {
		case <-c.done:
			return fail("exited before listening")
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fail("did not listen within 60s")
		}
	}
	for {
		resp, err := adminClient.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			return fail("not ready within 60s")
		}
		time.Sleep(time.Millisecond)
	}
}

// rssPoll is how often a batch child's high-water mark is sampled. The
// mark only grows, so only growth in the last interval before exit is
// missed.
const rssPoll = 10 * time.Millisecond

// runToExit executes a batch program and returns its wall time from exec
// to exit and its peak resident set.
func runToExit(ctx context.Context, logPath, bin string, args ...string) (wall time.Duration, peakRSSMB float64, err error) {
	start := time.Now()
	c, err := startChild(ctx, logPath, bin, args...)
	if err != nil {
		return 0, 0, err
	}
	tick := time.NewTicker(rssPoll)
	defer tick.Stop()
	for running := true; running; {
		select {
		case <-c.done:
			running = false
		case <-tick.C:
			c.sampleRSS()
		}
	}
	wall = time.Since(start)
	if c.err != nil {
		b, _ := os.ReadFile(logPath)
		var ee *exec.ExitError
		if errors.As(c.err, &ee) {
			return wall, c.peakRSSMB(), fmt.Errorf("%s exited %d: %s", filepath.Base(bin), ee.ExitCode(), bytes.TrimSpace(b))
		}
		return wall, c.peakRSSMB(), c.err
	}
	return wall, c.peakRSSMB(), nil
}
