package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildLint compiles the sdtwlint binary once per test run.
func buildLint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sdtwlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building sdtwlint: %v\n%s", err, out)
	}
	return bin
}

// repoRoot returns the module root (two levels up from cmd/sdtwlint).
func repoRoot(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// TestVettoolProtocol exercises the cmd/go unitchecker handshake: -V=full
// identity, -flags inventory, and a full `go vet -vettool` run over the
// module (which also covers _test.go files via test-variant packages).
func TestVettoolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("full go vet sweep is not short")
	}
	bin := buildLint(t)

	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	fields := strings.Fields(string(out))
	if len(fields) < 3 || fields[1] != "version" {
		t.Fatalf("-V=full output %q does not satisfy the cmd/go contract (need ≥3 fields, second == version)", out)
	}

	out, err = exec.Command(bin, "-flags").Output()
	if err != nil {
		t.Fatalf("-flags: %v", err)
	}
	for _, name := range []string{"fmaround", "nilctx", "paramlit", "errlint", "hotalloc", "lockheld"} {
		if !bytes.Contains(out, []byte(`"`+name+`"`)) {
			t.Errorf("-flags output missing analyzer %q:\n%s", name, out)
		}
	}

	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = repoRoot(t)
	vet.Env = os.Environ()
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool=sdtwlint ./... failed: %v\n%s", err, out)
	}
}
