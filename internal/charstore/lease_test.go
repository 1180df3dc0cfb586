package charstore

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// Cross-process lease tests re-execute the test binary as a child process
// (the standard re-exec helper pattern): when STANOISE_LEASE_CHILD is set,
// TestMain runs leaseChildMain instead of the test suite, so the child is
// a genuinely separate process holding a lease on a shared directory.
func TestMain(m *testing.M) {
	if os.Getenv("STANOISE_LEASE_CHILD") != "" {
		leaseChildMain()
		return
	}
	os.Exit(m.Run())
}

// leaseChildMain acquires the lease named by the environment, announces it
// on stdout, holds it for the requested duration, and (optionally)
// releases it. The parent synchronises on the HELD line and, in the
// crash-recovery test, SIGKILLs the child while it holds.
func leaseChildMain() {
	dir := os.Getenv("STANOISE_LEASE_DIR")
	key := os.Getenv("STANOISE_LEASE_KEY")
	ttlMS, _ := strconv.Atoi(os.Getenv("STANOISE_LEASE_TTL_MS"))
	holdMS, _ := strconv.Atoi(os.Getenv("STANOISE_LEASE_HOLD_MS"))
	s, err := Open(dir)
	if err != nil {
		fmt.Println("ERR", err)
		os.Exit(1)
	}
	s.SetLeaseTTL(time.Duration(ttlMS) * time.Millisecond)
	release, err := s.acquireLeaseKey(context.Background(), key)
	if err != nil {
		fmt.Println("ERR", err)
		os.Exit(1)
	}
	fmt.Println("HELD")
	time.Sleep(time.Duration(holdMS) * time.Millisecond)
	if os.Getenv("STANOISE_LEASE_RELEASE") == "1" {
		release()
	}
	fmt.Println("DONE")
	os.Exit(0)
}

// leaseTestKey is a syntactically valid (64 lowercase hex) content address
// reserved for lease tests; leases never require the object to exist.
var leaseTestKey = strings.Repeat("ab", 32)

// startLeaseChild re-executes the test binary as a lease-holding child and
// blocks until the child reports HELD, so the parent knows the lock file
// exists before contending.
func startLeaseChild(t *testing.T, dir string, ttl, hold time.Duration, release bool) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"STANOISE_LEASE_CHILD=1",
		"STANOISE_LEASE_DIR="+dir,
		"STANOISE_LEASE_KEY="+leaseTestKey,
		fmt.Sprintf("STANOISE_LEASE_TTL_MS=%d", ttl.Milliseconds()),
		fmt.Sprintf("STANOISE_LEASE_HOLD_MS=%d", hold.Milliseconds()),
	)
	if release {
		cmd.Env = append(cmd.Env, "STANOISE_LEASE_RELEASE=1")
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if line == "HELD" {
			return cmd
		}
		t.Fatalf("lease child: %s", line)
	}
	t.Fatalf("lease child exited before HELD: %v", sc.Err())
	return nil
}

// TestLeaseSingleFlightInProcess asserts the basic mutual exclusion and
// counter contract within one process: a second acquirer of the same key
// blocks until the first releases, and the contention is counted.
func TestLeaseSingleFlightInProcess(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	release, err := s.acquireLeaseKey(context.Background(), leaseTestKey)
	if err != nil {
		t.Fatal(err)
	}

	var second atomic.Bool
	done := make(chan error, 1)
	go func() {
		r2, err := s.acquireLeaseKey(context.Background(), leaseTestKey)
		if err == nil {
			second.Store(true)
			r2()
		}
		done <- err
	}()

	// The contender must still be waiting while the lease is held.
	time.Sleep(4 * s.leasePollValue())
	if second.Load() {
		t.Fatal("second acquirer obtained a held lease")
	}
	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("second acquire after release: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second acquirer never obtained the released lease")
	}
	st := s.LeaseStats()
	if st.Acquired != 2 || st.Contended < 1 || st.Takeovers != 0 {
		t.Fatalf("lease stats %+v, want 2 acquired, >=1 contended, 0 takeovers", st)
	}
}

// TestLeaseAcquireHonorsContext asserts a waiter gives up with ctx.Err()
// when its context expires while another holder keeps the lease.
func TestLeaseAcquireHonorsContext(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	release, err := s.acquireLeaseKey(context.Background(), leaseTestKey)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 5*s.leasePollValue())
	defer cancel()
	if _, err := s.acquireLeaseKey(ctx, leaseTestKey); err != context.DeadlineExceeded {
		t.Fatalf("acquire under expired ctx returned %v, want context.DeadlineExceeded", err)
	}
}

// TestLeaseReleaseIsTokenChecked asserts a release after a stale takeover
// is a no-op: the original holder's release must not remove the new
// owner's lock file.
func TestLeaseReleaseIsTokenChecked(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.SetLeaseTTL(time.Millisecond) // first lease goes stale immediately
	staleRelease, err := s.acquireLeaseKey(context.Background(), leaseTestKey)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	s.SetLeaseTTL(time.Minute)
	release, err := s.acquireLeaseKey(context.Background(), leaseTestKey)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	staleRelease() // must see a foreign token and leave the file alone
	if _, err := os.Stat(s.leasePath(leaseTestKey)); err != nil {
		t.Fatalf("stale holder's release removed the new owner's lease: %v", err)
	}
	if st := s.LeaseStats(); st.Takeovers != 1 {
		t.Fatalf("takeovers = %d, want 1", st.Takeovers)
	}
}

// TestLeaseCrossProcessContention asserts leases exclude across real
// process boundaries: with a child process holding the lease, the parent
// waits (counted as contention) and only acquires after the child
// releases.
func TestLeaseCrossProcessContention(t *testing.T) {
	dir := t.TempDir()
	startLeaseChild(t, dir, 30*time.Second, 300*time.Millisecond, true)

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	release, err := s.acquireLeaseKey(ctx, leaseTestKey)
	if err != nil {
		t.Fatalf("parent never acquired after child release: %v", err)
	}
	release()
	st := s.LeaseStats()
	if st.Acquired != 1 || st.Contended != 1 || st.Takeovers != 0 {
		t.Fatalf("lease stats %+v, want 1 acquired, 1 contended, 0 takeovers", st)
	}
}

// TestLeaseStaleTakeoverAfterKill asserts crash recovery: a child process
// is SIGKILLed while holding the lease (so it never releases), and once
// the lease TTL passes, the parent takes the stale lease over — exactly
// once — instead of waiting forever.
func TestLeaseStaleTakeoverAfterKill(t *testing.T) {
	dir := t.TempDir()
	ttl := 400 * time.Millisecond
	child := startLeaseChild(t, dir, ttl, 60*time.Second, false)
	if err := child.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	child.Wait()

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	release, err := s.acquireLeaseKey(ctx, leaseTestKey)
	if err != nil {
		t.Fatalf("parent never took over the dead child's lease: %v", err)
	}
	defer release()
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("takeover took %v, far beyond the %v TTL", waited, ttl)
	}
	st := s.LeaseStats()
	if st.Takeovers != 1 || st.Acquired != 1 {
		t.Fatalf("lease stats %+v, want exactly 1 takeover and 1 acquisition", st)
	}
}

// TestGCReapsExpiredLeases asserts abandoned lock files are reclaimed by
// the store's GC pass.
func TestGCReapsExpiredLeases(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.SetLeaseTTL(time.Millisecond)
	if _, err := s.acquireLeaseKey(context.Background(), leaseTestKey); err != nil {
		t.Fatal(err) // deliberately never released
	}
	time.Sleep(5 * time.Millisecond)
	if removed := s.GC(); removed != 1 {
		t.Fatalf("GC reclaimed %d files, want 1 expired lease", removed)
	}
	if _, err := os.Stat(s.leasePath(leaseTestKey)); !os.IsNotExist(err) {
		t.Fatalf("expired lease file survived GC: %v", err)
	}
}

// TestLeaseNoFalseTakeoverUnderContention is the regression test for the
// torn-write race the atomic-link protocol closes: under a
// create-exclusive-then-write scheme a waiter could read a lock file
// after its creation but before its payload landed, judge the garbage
// stale, and rename a LIVE holder's lease aside — silently duplicating
// the build it guarded. Goroutines hammering acquire/release cycles on
// one key with a generous TTL must therefore never record a takeover.
func TestLeaseNoFalseTakeoverUnderContention(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.SetLeaseTTL(time.Minute)
	s.leasePoll.Store(int64(50 * time.Microsecond)) // hammer the contended read path
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				release, err := s.acquireLeaseKey(context.Background(), leaseTestKey)
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				release()
			}
		}()
	}
	wg.Wait()
	if n := s.LeaseStats().Takeovers; n != 0 {
		t.Fatalf("%d live leases were taken over under contention, want 0", n)
	}
}
