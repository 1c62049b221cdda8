package snapstore

// Crash safety under SIGKILL: a helper process (this test binary
// re-exec'd) publishes generations in a tight loop and the parent kills
// it with SIGKILL at seeded offsets — mid-write, mid-rename, mid-prune,
// wherever the clock lands. After every kill the
// store must cold-start: LoadCurrentOpen returns a generation that is
// complete and byte-identical in service to the original snapshot,
// never a torn one.

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

const (
	crashHelperEnv = "SNAPSTORE_CRASH_HELPER"
	crashBaseEnv   = "SNAPSTORE_CRASH_BASE"
	crashDirEnv    = "SNAPSTORE_CRASH_DIR"
)

// TestCrashHelperProcess is the publisher half of the kill test. It is
// a no-op unless re-exec'd by TestCrashSafePublish with the helper env
// set, in which case it decodes the base snapshot and publishes
// incrementing generations until it is killed.
func TestCrashHelperProcess(t *testing.T) {
	if os.Getenv(crashHelperEnv) == "" {
		t.Skip("helper process entry point; driven by TestCrashSafePublish")
	}
	data, err := os.ReadFile(os.Getenv(crashBaseEnv))
	if err != nil {
		fmt.Println("HELPER-ERR", err)
		os.Exit(2)
	}
	snap, _, err := Decode(data)
	if err != nil {
		fmt.Println("HELPER-ERR", err)
		os.Exit(2)
	}
	st, err := Open(os.Getenv(crashDirEnv), StoreOptions{Keep: 3})
	if err != nil {
		fmt.Println("HELPER-ERR", err)
		os.Exit(2)
	}
	if err := st.PublishEncoded(Encode(snap, 1)); err != nil {
		fmt.Println("HELPER-ERR", err)
		os.Exit(2)
	}
	fmt.Println("READY") // generation 1 is durable; the parent may now kill at will
	for gen := uint64(2); ; gen++ {
		if err := st.PublishEncoded(Encode(snap, gen)); err != nil {
			fmt.Println("HELPER-ERR", err)
			os.Exit(2)
		}
	}
}

func TestCrashSafePublish(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary per seed")
	}
	want := testSnapshot(t)
	base := filepath.Join(t.TempDir(), "base.snap")
	if err := os.WriteFile(base, Encode(want, 1), 0o644); err != nil {
		t.Fatal(err)
	}

	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			cmd := exec.Command(os.Args[0], "-test.run=TestCrashHelperProcess", "-test.v")
			cmd.Env = append(os.Environ(),
				crashHelperEnv+"=1", crashBaseEnv+"="+base, crashDirEnv+"="+dir)
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			defer cmd.Process.Kill()
			defer cmd.Wait()

			// Wait for the first durable generation, then kill mid-flight
			// at a seed-dependent offset into the publish loop.
			sc := bufio.NewScanner(stdout)
			ready := false
			for sc.Scan() {
				line := sc.Text()
				if strings.HasPrefix(line, "HELPER-ERR") {
					t.Fatalf("helper failed: %s", line)
				}
				if strings.Contains(line, "READY") {
					ready = true
					break
				}
			}
			if !ready {
				t.Fatalf("helper exited before publishing generation 1: %v", sc.Err())
			}
			time.Sleep(time.Duration(1+seed*7%45) * time.Millisecond)
			if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
				t.Fatal(err)
			}
			cmd.Wait()

			// Recovery: the store must load, and what loads must be a
			// complete generation serving byte-identically.
			st, err := Open(dir, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ld, err := st.LoadCurrentOpen(OpenOptions{})
			if err != nil {
				t.Fatalf("cold start after SIGKILL: %v", err)
			}
			defer ld.Snap.Release()
			gen := ld.Gen
			if gen < 1 {
				t.Fatalf("recovered generation %d, want >= 1", gen)
			}
			assertServesIdentical(t, fmt.Sprintf("post-SIGKILL gen %d", gen), ld.Snap, want)

			// Torn artifacts may exist (a .tmp cut down mid-write); they
			// must be invisible to the generation scan, and every complete
			// generation file must decode — rename is the commit point, so
			// a gen-*.snap either never appeared or is whole.
			gens, err := st.Generations()
			if err != nil {
				t.Fatal(err)
			}
			if len(gens) == 0 || gens[0] != gen {
				t.Fatalf("scan found generations %v but LoadCurrentOpen served %d", gens, gen)
			}
			for _, g := range gens {
				data, err := os.ReadFile(filepath.Join(dir, genFileName(g)))
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := Decode(data); err != nil {
					t.Errorf("generation %d survived the rename but does not decode: %v", g, err)
				}
			}
		})
	}
}
