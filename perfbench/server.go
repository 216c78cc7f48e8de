package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one distmatchd process under test.
type server struct {
	cmd  *exec.Cmd
	base string
	logs bytes.Buffer
	// waitCh receives the process's exit once it ends.
	waitCh chan error
}

// startServer execs bin with args on a free loopback port and waits for
// the first 200 from /v1/health. It returns the server and the time
// from exec to that 200 — the serving workloads' set-up time.
func startServer(bin string, args []string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	s := &server{base: "http://" + addr}
	s.cmd = exec.Command(bin, append(args, "-addr", addr, "-accesslog=false")...)
	s.cmd.Stdout = &s.logs
	s.cmd.Stderr = &s.logs
	// The server must not outlive the harness, even one that crashes.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	hc := &http.Client{Timeout: time.Second}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	exited := make(chan error, 1)
	go func() { exited <- s.cmd.Wait() }()
	deadline := t0.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-exited:
			return nil, 0, fmt.Errorf("%s exited before serving: %v\n%s", bin, err, s.logs.String())
		default:
		}
		resp, err := hc.Get(s.base + "/v1/health")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				setup := time.Since(t0)
				s.waitCh = exited
				return s, setup, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.cmd.Process.Kill()
	<-exited
	return nil, 0, fmt.Errorf("%s not healthy within 60s\n%s", bin, s.logs.String())
}

// freeAddr picks an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// peakRSSMiB reads the process's high-water resident set (VmHWM).
func peakRSSMiB(pid int) (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// stop kills the server and waits until it has exited.
func (s *server) stop() {
	s.cmd.Process.Kill()
	<-s.waitCh
}
