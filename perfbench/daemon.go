package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"elsi/internal/client"
)

// daemon is one running elsid process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has exited and its log is drained

	mu  sync.Mutex
	log bytes.Buffer // elsid's standard error, kept for failure reports
}

const startTimeout = 60 * time.Second

// startDaemon execs elsid and returns once it has answered a request,
// with the time from exec to that answer.
func startDaemon(bin string, args []string) (*daemon, time.Duration, error) {
	d := &daemon{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	// elsid dies with the benchmark, however the benchmark ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start elsid: %w", err)
	}
	addr := make(chan string, 1) // sent at most once; never blocks the log reader
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log.WriteString(line + "\n")
			d.mu.Unlock()
			if i := strings.Index(line, "binary protocol on "); i >= 0 && !sent {
				addr <- strings.TrimSpace(line[i+len("binary protocol on "):])
				sent = true
			}
		}
		_ = d.cmd.Wait() // the exit status is read from ProcessState by whoever needs it
		close(d.done)
	}()
	select {
	case d.addr = <-addr:
	case <-d.done:
		return nil, 0, fmt.Errorf("elsid exited before listening:\n%s", d.stderr())
	case <-time.After(startTimeout):
		d.kill()
		return nil, 0, fmt.Errorf("elsid did not listen within %v:\n%s", startTimeout, d.stderr())
	}
	c, err := client.DialTCP(d.addr)
	if err != nil {
		d.kill()
		return nil, 0, err
	}
	defer c.Close()
	if _, err := c.Stats(); err != nil {
		d.kill()
		return nil, 0, fmt.Errorf("first request: %w", err)
	}
	return d, time.Since(t0), nil
}

func (d *daemon) stderr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// kill sends SIGKILL and waits until the process has exited.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only if the process is already gone
	<-d.done
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}
