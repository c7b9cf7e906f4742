// Command linkcheck fails (exit 1) when a markdown document references
// repository paths or commands that do not exist. It extracts every token
// that looks like a repo path — anything under cmd/, internal/, examples/,
// scripts/, or docs/, plus root-level *.go / *.json / *.md file names —
// and every command name that opens a code span (`ppdm-eval` or
// `ppdm-eval -run ...`, which must resolve to cmd/ppdm-eval), and stats it
// relative to the repository root, so documentation cannot drift to
// packages or commands that were renamed or removed. CI runs it over
// docs/ARCHITECTURE.md, the README and the verify skill.
//
// Usage: go run ./scripts/linkcheck <doc.md> [doc.md...]
package main

import (
	"fmt"
	"os"
	"regexp"
	"strings"
)

// pathPattern matches repository-path-shaped tokens: a known top-level
// directory followed by path characters, or a root-level file with a
// checkable extension.
var pathPattern = regexp.MustCompile(
	`(?:cmd|internal|examples|scripts|docs)(?:/[A-Za-z0-9_.-]+)+|[A-Za-z0-9_-]+\.(?:go|json|md)\b`)

// commandPattern matches a ppdm command name at the start of a code span,
// followed by a space or the closing backtick. Format names such as
// `ppdm-nb/1` go on with a slash and do not match.
var commandPattern = regexp.MustCompile("`(ppdm-[a-z0-9-]+)[ `]")

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: linkcheck <doc.md> [doc.md...]")
		os.Exit(2)
	}
	bad := 0
	for _, doc := range os.Args[1:] {
		missing, err := check(doc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "linkcheck: %s: %v\n", doc, err)
			os.Exit(2)
		}
		for _, ref := range missing {
			fmt.Fprintf(os.Stderr, "%s: references %s, which does not exist\n", doc, ref)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "linkcheck: %d dangling references\n", bad)
		os.Exit(1)
	}
}

// check returns the repo-path references of one document that do not
// resolve to an existing file or directory.
func check(doc string) ([]string, error) {
	data, err := os.ReadFile(doc)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var missing []string
	for _, line := range strings.Split(string(data), "\n") {
		refs := pathPattern.FindAllString(line, -1)
		for _, m := range commandPattern.FindAllStringSubmatch(line, -1) {
			refs = append(refs, "cmd/"+m[1])
		}
		for _, ref := range refs {
			ref = strings.TrimRight(ref, ".")
			if seen[ref] || skip(ref) {
				continue
			}
			seen[ref] = true
			if _, err := os.Stat(ref); err == nil {
				continue
			}
			// A qualified Go name like internal/cli.Serve refers to the
			// package before the dot; require that to exist instead.
			if i := strings.LastIndex(ref, "."); i > strings.LastIndex(ref, "/") {
				if _, err := os.Stat(ref[:i]); err == nil {
					continue
				}
			}
			missing = append(missing, ref)
		}
	}
	return missing, nil
}

// skip filters tokens that look path-shaped but are not repository paths:
// example artifacts the reader is told to generate (model/train/test
// files) and generic placeholders.
func skip(ref string) bool {
	switch {
	case strings.HasSuffix(ref, ".tmp"):
		return true
	case !strings.Contains(ref, "/"):
		// Root-level file names: only require the ones that are clearly
		// repository artifacts (uppercase docs, *_test.go, go.mod-adjacent);
		// lowercase names like model.json / train.csv are user artifacts
		// from quickstart commands.
		base := ref
		if base == strings.ToLower(base) && !strings.HasSuffix(base, "_test.go") && base != "ppdm.go" {
			return true
		}
	}
	return false
}
