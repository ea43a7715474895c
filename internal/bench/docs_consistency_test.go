package bench

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// repoRoot walks up from the package directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("module root not found")
		}
		dir = parent
	}
}

// TestDocsCoverEveryExperiment: DESIGN.md and EXPERIMENTS.md must mention
// every experiment id the harness registers, so the documentation cannot
// silently drift from the code.
func TestDocsCoverEveryExperiment(t *testing.T) {
	root := repoRoot(t)
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		text := strings.ToLower(string(raw))
		for _, e := range Experiments {
			// fig6 appears as "fig6" or "Fig. 6"; accept either spelling.
			spaced := strings.Replace(e.ID, "fig", "fig. ", 1)
			spaced = strings.Replace(spaced, "table", "table ", 1)
			if !strings.Contains(text, e.ID) && !strings.Contains(text, spaced) {
				t.Errorf("%s does not mention experiment %q", doc, e.ID)
			}
		}
	}
}

// TestReadmeMentionsDeliverables: the README must point at the design doc,
// the experiment record, the three CLI tools, and the benchmark.
func TestReadmeMentionsDeliverables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot(t), "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"DESIGN.md", "EXPERIMENTS.md",
		"cmd/egobw", "cmd/benchtab", "cmd/datagen",
		"examples/quickstart", "benchmark/",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("README.md does not mention %s", want)
		}
	}
}

// TestDocsHaveNoDanglingReferences: every `make <target>` and every
// repo-relative path the three top-level documents name must exist, so a
// deleted file or Make target cannot linger in the prose. Three spellings
// count as a path: a/b/c whose first segment is a top-level directory,
// pkg/file.go under internal/, and — in prose only, because command
// examples name the user's own files — a bare file name, which must match
// some file of the repository. The CI workflow and the verify skill are
// scanned too, for the one spelling their command lines use: a ./internal/…
// or ./cmd/… package path, which must be a directory. Finally the living
// documents — README, DESIGN, the workflow and the skill; EXPERIMENTS.md is
// a dated record and may name what it measured — must not name a retired
// symbol (retiredSymbols), and no Go file may declare one again.
func TestDocsHaveNoDanglingReferences(t *testing.T) {
	root := repoRoot(t)
	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	baseNames := map[string]bool{}
	retired := regexp.MustCompile(`\b(` + strings.Join(retiredSymbols, "|") + `)\b`)
	retiredDecl := regexp.MustCompile(`(?m)^func (?:\([^)]*\) )?(` + strings.Join(retiredSymbols, "|") + `)\(`)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		baseNames[d.Name()] = true
		if strings.HasSuffix(path, ".go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range retiredDecl.FindAllSubmatch(src, -1) {
				t.Errorf("%s declares %s, which retiredSymbols lists as deleted", path, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(rel string) bool {
		_, err := os.Stat(filepath.Join(root, rel))
		return err == nil
	}
	isDir := func(rel string) bool {
		info, err := os.Stat(filepath.Join(root, rel))
		return err == nil && info.IsDir()
	}

	makeRef := regexp.MustCompile("(?m)(?:`|^\\s+)make ([a-z][a-z0-9-]*)")
	token := regexp.MustCompile(`[A-Za-z0-9_./-]+`)
	fileName := regexp.MustCompile(`\.(go|md|json|txt|sh|yml|mod)$`)
	// Code blocks (fenced or indented), and inline spans: one holding a
	// space is a command line.
	codeBlock := regexp.MustCompile("(?ms)^```.*?^```|^    .*?$")
	codeSpan := regexp.MustCompile("`[^`\n]*`")

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, m := range makeRef.FindAllSubmatch(raw, -1) {
			if !targets[string(m[1])] {
				t.Errorf("%s names `make %s`, which the Makefile does not define", doc, m[1])
			}
		}
		for _, tok := range token.FindAllString(string(raw), -1) {
			first, _, nested := strings.Cut(tok, "/")
			if !nested || first == "" { // bare name, or an absolute/URL path
				continue
			}
			tok = strings.TrimRight(tok, "./")
			switch {
			case isDir(first):
				if !exists(tok) {
					t.Errorf("%s names %s, which does not exist", doc, tok)
				}
			case strings.HasSuffix(tok, ".go") && isDir(filepath.Join("internal", first)):
				if !exists(filepath.Join("internal", tok)) {
					t.Errorf("%s names %s, which does not exist under internal/", doc, tok)
				}
			}
		}
		prose := codeSpan.ReplaceAllStringFunc(codeBlock.ReplaceAllString(string(raw), " "), func(span string) string {
			if strings.Contains(span, " ") {
				return " "
			}
			return span
		})
		for _, tok := range token.FindAllString(prose, -1) {
			tok = strings.TrimRight(tok, ".")
			if !strings.Contains(tok, "/") && fileName.MatchString(tok) && !baseNames[tok] {
				t.Errorf("%s names the file %s, which does not exist in the repository", doc, tok)
			}
		}
	}

	pkgPath := regexp.MustCompile(`\./(?:internal|cmd)/[A-Za-z0-9_/-]+`)
	for _, doc := range []string{"README.md", "DESIGN.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, sym := range retired.FindAllString(string(raw), -1) {
			t.Errorf("%s names %s, which is deleted", doc, sym)
		}
		if strings.HasSuffix(doc, ".md") && !strings.Contains(doc, "/") {
			continue // top-level documents: their paths were checked above
		}
		for _, pkg := range pkgPath.FindAllString(string(raw), -1) {
			if !isDir(strings.TrimRight(pkg, "/")) {
				t.Errorf("%s names the package %s, which does not exist", doc, pkg)
			}
		}
	}
}

// retiredSymbols are the functions and methods deleted when the ego CSR
// became the only per-ego substrate: the sequential edge-by-edge evidence
// engine, the register-based sampling API with its direct-probe fork, the
// nbr exports they were the last callers of, and the from-scores
// constructors the kernel sweep made redundant.
var retiredSymbols = []string{
	"applyEdge", "NonAdjacentPairs",
	"BeginCenter", "EndCenter", "MarkedOf", "PairContribution", "buildTables",
	"CommonMarkedCount", "ForEachCommon", "EachCommon",
	"NewMaintainerFromScores", "NewLazyTopKFromScores",
}
