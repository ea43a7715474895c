package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
)

// buildDaemon compiles ./cmd/egobwd of the checkout at root into out. The
// daemon under test is always a child process built from source with
// default flags; its compile time is outside every measurement.
func buildDaemon(root, out string) error {
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", out, "./cmd/egobwd")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build egobwd in %s: %w", root, err)
	}
	return nil
}

// daemon is one egobwd child process.
type daemon struct {
	bin     string
	dataDir string // "" = in memory
	logPath string
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
}

// freePort asks the kernel for an unused loopback port. Another process
// could take it before the daemon binds; the health wait then times out
// and the run reports the error.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// launch execs the daemon without waiting for it to listen.
func launch(bin, dataDir, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", "127.0.0.1:" + strconv.Itoa(port)}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	d := &daemon{bin: bin, dataDir: dataDir, logPath: logPath, cmd: cmd,
		base: "http://127.0.0.1:" + strconv.Itoa(port)}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	return d, nil
}

// kill sends SIGKILL and reaps the child.
func (d *daemon) kill() {
	if d == nil || d.cmd == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Kill() // already-exited is fine
	_ = d.cmd.Wait()         // reaps; the kill makes the exit status an error by design
	d.cmd = nil
}

// procStats is what /proc says about the child right now.
type procStats struct {
	peakRSSMB float64
	cpuMS     float64 // utime + stime
}

// proc reads VmHWM and the CPU ticks of the live child. Linux only; on
// other hosts the numbers stay 0.
func (d *daemon) proc() procStats {
	var ps procStats
	if d == nil || d.cmd == nil {
		return ps
	}
	pid := strconv.Itoa(d.cmd.Process.Pid)
	if b, err := os.ReadFile("/proc/" + pid + "/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				kb, _ := strconv.ParseFloat(f[1], 64)
				ps.peakRSSMB = kb / 1024
			}
		}
	}
	if b, err := os.ReadFile("/proc/" + pid + "/stat"); err == nil {
		// Fields after the parenthesised command name; utime and stime are
		// the 14th and 15th of the whole line.
		if i := bytes.LastIndexByte(b, ')'); i >= 0 {
			f := strings.Fields(string(b[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseFloat(f[11], 64)
				st, _ := strconv.ParseFloat(f[12], 64)
				ps.cpuMS = (ut + st) * 1000 / clockTicks
			}
		}
	}
	return ps
}

// clockTicks is USER_HZ, 100 on every Linux Go runs on.
const clockTicks = 100

func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.logPath)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// client is the load generator's HTTP side: one keep-alive transport
// capped at two connections, the most the two client goroutines use.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole answer. out, when non-nil,
// receives the decoded JSON body of a 2xx answer.
func (c *client) do(method, path string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

func (c *client) get(path string, out any) (int, error) { return c.do("GET", path, nil, out) }

func gpath(sub string) string { return "/graphs/" + graphName + sub }

// stats fetches the graph's /stats payload.
func (c *client) stats() (server.GraphStats, error) {
	var st server.GraphStats
	code, err := c.get(gpath("/stats"), &st)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("GET stats: status %d", code)
	}
	return st, nil
}

// waitReady polls path until it answers 200 or the deadline passes.
func (c *client) waitReady(path string, d *daemon, deadline time.Duration) error {
	stop := time.Now().Add(deadline)
	for {
		code, err := c.get(path, nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(stop) {
			return fmt.Errorf("daemon not ready on %s after %v (last: status %d, %v)\n%s", path, deadline, code, err, d.logTail())
		}
		time.Sleep(time.Millisecond)
	}
}

// loadBody is the POST /graphs body for explicit edges, encoded once
// outside every timer: the program only ever receives generated inputs.
func loadBody(n int32, edges []edge) ([]byte, error) {
	return json.Marshal(server.LoadRequest{Name: graphName, Edges: edges, N: n, Mode: server.ModeLocal})
}

// coldStart is one full serve set-up: exec, /healthz 200, POST /graphs
// 201, first topk 200. It returns the running daemon and how long the
// set-up took.
func coldStart(bin, dataDir, logPath string, body []byte) (*daemon, *client, time.Duration, error) {
	if dataDir != "" {
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, nil, 0, err
		}
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, nil, 0, err
		}
	}
	t0 := time.Now()
	d, err := launch(bin, dataDir, logPath)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(d.base)
	fail := func(err error) (*daemon, *client, time.Duration, error) {
		c.close()
		d.kill()
		return nil, nil, 0, err
	}
	if err := c.waitReady("/healthz", d, 20*time.Second); err != nil {
		return fail(err)
	}
	code, err := c.do("POST", "/graphs", body, nil)
	if err != nil || code != http.StatusCreated {
		return fail(fmt.Errorf("POST /graphs: status %d, %v\n%s", code, err, d.logTail()))
	}
	code, err = c.get(gpath("/topk?k=10"), nil)
	if err != nil || code != http.StatusOK {
		return fail(fmt.Errorf("first topk: status %d, %v", code, err))
	}
	return d, c, time.Since(t0), nil
}

// restart brings a killed durable daemon back on the same data dir and
// returns once topk?k=10 answers 200.
func (d *daemon) restart() (*daemon, *client, error) {
	nd, err := launch(d.bin, d.dataDir, d.logPath)
	if err != nil {
		return nil, nil, err
	}
	c := newClient(nd.base)
	if err := c.waitReady(gpath("/topk?k=10"), nd, 30*time.Second); err != nil {
		c.close()
		nd.kill()
		return nil, nil, err
	}
	return nd, c, nil
}
