// Command sdtwlint runs the internal/analyzers suite over Go packages as
// a vet tool:
//
//	go build -o /tmp/sdtwlint ./cmd/sdtwlint
//	go vet -vettool=/tmp/sdtwlint ./...
//
// It speaks the cmd/go unitchecker protocol (-V=full, -flags, *.cfg) —
// go vet loads the packages, test files included, and hands them over one
// at a time — and exits non-zero when any analyzer reports a diagnostic.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"sdtw/internal/analyzers"
)

func main() {
	args := os.Args[1:]

	// The go command probes the tool before use: -V=full must print a
	// stable identity line (used as a build-cache key), -flags the JSON
	// list of supported flags.
	for _, arg := range args {
		if arg == "-V=full" || arg == "--V=full" {
			fmt.Println(versionLine())
			return
		}
	}
	if len(args) > 0 && (args[0] == "-flags" || args[0] == "--flags") {
		printFlags()
		return
	}

	// Separate per-analyzer -name[=bool] selections (forwarded by go vet)
	// from positional arguments.
	known := make(map[string]bool)
	for _, a := range analyzers.All() {
		known[a.Name] = true
	}
	selections := make(map[string]bool)
	var rest []string
	for _, arg := range args {
		if strings.HasPrefix(arg, "-") {
			name := strings.TrimLeft(arg, "-")
			val := "true"
			if i := strings.IndexByte(name, '='); i >= 0 {
				name, val = name[:i], name[i+1:]
			}
			if known[name] {
				selections[name] = val == "true" || val == "1"
				continue
			}
			fmt.Fprintf(os.Stderr, "sdtwlint: unknown flag %q\n", arg)
			os.Exit(2)
		}
		rest = append(rest, arg)
	}

	if len(rest) != 1 || !strings.HasSuffix(rest[0], ".cfg") {
		fmt.Fprintln(os.Stderr, "sdtwlint is a vet tool; run: go vet -vettool=$(command -v sdtwlint) ./...")
		os.Exit(2)
	}
	os.Exit(runUnitchecker(rest[0], selections))
}

// versionLine returns the -V=full identity. The go command uses the
// whole line as the vettool's cache key, so it embeds a content hash of
// the executable: rebuilding sdtwlint invalidates cached vet results.
func versionLine() string {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				id = fmt.Sprintf("%x", h.Sum(nil))[:16]
			}
			f.Close()
		}
	}
	return fmt.Sprintf("sdtwlint version v0.1.0-%s", id)
}

// printFlags emits the JSON flag inventory the go command requests via
// -flags before forwarding user vet flags.
func printFlags() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	for _, a := range analyzers.All() {
		flags = append(flags, jsonFlag{Name: a.Name, Bool: true, Usage: "enable the " + a.Name + " analyzer (default true): " + a.Doc})
	}
	data, err := json.Marshal(flags)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Stdout.Write(data)
	fmt.Println()
}

// enabledAnalyzers applies -<name>=false style selections from vet
// flags; with no selection every analyzer runs.
func enabledAnalyzers(selections map[string]bool) []*analyzers.Analyzer {
	all := analyzers.All()
	if len(selections) == 0 {
		return all
	}
	// If any analyzer is explicitly enabled, run only those; otherwise
	// run all minus the explicitly disabled (the vet convention).
	anyEnabled := false
	for _, on := range selections {
		if on {
			anyEnabled = true
		}
	}
	var out []*analyzers.Analyzer
	for _, a := range all {
		on, mentioned := selections[a.Name]
		switch {
		case anyEnabled && mentioned && on:
			out = append(out, a)
		case !anyEnabled && !mentioned:
			out = append(out, a)
		}
	}
	return out
}
