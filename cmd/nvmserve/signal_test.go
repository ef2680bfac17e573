package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// A SIGTERM that lands as soon as /healthz first answers still takes
// the graceful path: the daemon drains, closes its store, prints its
// shutdown line and exits 0. The signal handler must be installed
// before the listener starts, or a signal in that window kills the
// process by the default action. Repeated because the window is narrow.
func TestSIGTERMRightAfterBootShutsDownCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the daemon binary")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "nvmserve")
	if out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	client := &http.Client{Timeout: time.Second}
	for i := 0; i < 20; i++ {
		addr := freeAddr(t)
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, "-addr", addr, "-store", t.TempDir(), "-workers", "1")
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		if err := waitHealthy(client, "http://"+addr+"/healthz"); err != nil {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("boot %d: %v\nstderr: %s", i, err, stderr.String())
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("boot %d: exit after SIGTERM: %v\nstdout: %s\nstderr: %s", i, err, stdout.String(), stderr.String())
		}
		if !strings.Contains(stdout.String(), "shutting down") {
			t.Fatalf("boot %d: no shutdown line in stdout:\n%s", i, stdout.String())
		}
	}
}

// freeAddr returns a loopback address with a port that was free a
// moment ago.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// waitHealthy polls url until it answers 200, for up to ten seconds.
func waitHealthy(client *http.Client, url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %s", resp.Status)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never answered 200: %v", url, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
