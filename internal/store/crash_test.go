package store

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The crash tests re-exec the test binary as a child that writes to a
// shared directory in a tight loop, kill it with SIGKILL mid-write,
// and verify what the survivor recovers. Child entry points are gated
// on an environment variable so a normal `go test` run skips them.

const crashDirEnv = "STORE_CRASH_DIR"

// TestCrashChildAppend is the child body for the kill-mid-append test:
// it appends records forever (per-append fsync so every acknowledged
// record is durable) until the parent kills it. Record i is fully
// determined by i, so the parent can verify both prefix-closure and
// content integrity.
func TestCrashChildAppend(t *testing.T) {
	dir := os.Getenv(crashDirEnv)
	if dir == "" {
		t.Skip("child entry point; driven by TestCrashRecoveryKillMidAppend")
	}
	l, err := OpenLog(LogConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l.seg.segmentBytes = 8 << 10
	for i := 0; ; i++ {
		hash := fmt.Sprintf("h%06d", i)
		if err := l.MergeBounds(hash, Bounds{LB: i%5 + 2}); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := l.PutTree(hash, testTree(i%4+2)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCrashRecoveryKillMidAppend: SIGKILL the appender at a random
// point; the reopened log must hold a contiguous prefix h000000..hN,
// every record carrying exactly the values the child wrote — at most
// the record in flight is lost, never an earlier or corrupted one.
func TestCrashRecoveryKillMidAppend(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary")
	}
	for round := 0; round < 3; round++ {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashChildAppend$", "-test.v")
		cmd.Env = append(os.Environ(), crashDirEnv+"="+dir)
		var out strings.Builder
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(40+round*35) * time.Millisecond)
		cmd.Process.Kill()
		err := cmd.Wait()
		if ee, ok := err.(*exec.ExitError); !ok || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
			t.Fatalf("round %d: child exited (%v) before the kill; output:\n%s", round, err, out.String())
		}

		l, err := OpenLog(LogConfig{Dir: dir})
		if err != nil {
			t.Fatalf("round %d: recovery open: %v", round, err)
		}
		n := len(l.Hashes())
		if n == 0 {
			t.Fatalf("round %d: child wrote nothing before the kill", round)
		}
		for i := 0; i < n; i++ {
			hash := fmt.Sprintf("h%06d", i)
			b, ok := l.Bounds(hash)
			if !ok {
				t.Fatalf("round %d: hole at %s with %d entries recovered", round, hash, n)
			}
			wantLB := i%5 + 2
			wantUB := 0
			if i%3 == 0 {
				wantUB = i%4 + 2
			}
			// The newest entry may have lost the record in flight: its
			// bounds land before its tree, so UB may still be 0 there.
			lastEntry := i == n-1
			if b.LB != wantLB || (b.UB != wantUB && !(lastEntry && b.UB == 0)) {
				t.Fatalf("round %d: %s bounds %+v, want LB=%d UB=%d", round, hash, b, wantLB, wantUB)
			}
			if i%3 == 0 {
				if tr, ok, err := l.Tree(hash); err != nil || (ok && tr.Width() != i%4+2) {
					t.Fatalf("round %d: %s tree corrupt (ok=%v err=%v)", round, hash, ok, err)
				}
			}
		}
		if _, ok := l.Bounds(fmt.Sprintf("h%06d", n)); ok {
			t.Fatalf("round %d: Len=%d but h%06d exists — index out of step", round, n, n)
		}
		// The recovered log must accept and persist new appends.
		if err := l.MergeBounds("post-crash", Bounds{LB: 9}); err != nil {
			t.Fatalf("round %d: append after recovery: %v", round, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("round %d: close after recovery: %v", round, err)
		}
		t.Logf("round %d: recovered %d entries", round, n)
	}
}
