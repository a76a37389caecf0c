package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// daemon is one running nvdserve process.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	started time.Time
	ready   time.Time
	exited  chan struct{} // closed once the process is reaped
}

// startDaemon execs bin with args (which must include -addr
// 127.0.0.1:0) and waits until /readyz answers 200; setup time is
// ready - started. The daemon's output goes to logPath.
func startDaemon(bin string, args []string, logPath string) (*daemon, error) {
	out, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer out.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = out, out
	// The kernel kills the daemon if the benchmark dies without
	// stopping it, so no run leaves a daemon behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, started: time.Now(), exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = cmd.Wait()
		close(d.exited)
	}()
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := d.started.Add(120 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			d.stop()
			return nil, fmt.Errorf("%s exited during start-up; see %s", filepath.Base(bin), logPath)
		default:
		}
		if d.base == "" {
			b, _ := os.ReadFile(logPath)
			if i := bytes.Index(b, []byte("listening on http://")); i >= 0 {
				rest := b[i+len("listening on "):]
				if j := bytes.IndexByte(rest, '\n'); j >= 0 {
					d.base = string(rest[:j])
				}
			}
		}
		if d.base != "" {
			if resp, err := client.Get(d.base + "/readyz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					d.ready = time.Now()
					return d, nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("%s not ready after 120s; see %s", filepath.Base(bin), logPath)
}

func (d *daemon) setup() float64 { return d.ready.Sub(d.started).Seconds() }

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM, waits for the daemon's drain and shutdown, and
// kills it if it has not exited in 20 seconds. It always reaps.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// cpuSeconds is the daemon's user+system CPU time so far.
func (d *daemon) cpuSeconds() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid()))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTicks
}

// procField reads one "Name: value" field of a /proc/<pid> file.
func (d *daemon) procField(file, name string) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", d.pid(), file))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, name+":") {
			v, _ := strconv.ParseFloat(strings.Fields(line[len(name)+1:])[0], 64)
			return v
		}
	}
	return 0
}

// writeBytes is what the daemon has sent to the storage layer.
func (d *daemon) writeBytes() float64 { return d.procField("io", "write_bytes") }

// hostTicks reads the host's summed CPU time and its steal time (time a
// virtual CPU was runnable but the hypervisor ran something else) from
// /proc/stat, in clock ticks.
func hostTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
