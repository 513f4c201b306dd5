package lint

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// Run loads the module rooted at or above dir, runs the production analyzers
// over the packages selected by patterns, and writes findings to w. Each
// pattern is a package path ("overshadow/internal/vmm"), a relative form
// ("./..." or "./internal/vmm"), or a "/..." wildcard; none means everything.
// It returns the surviving findings; a non-nil error means the load itself
// failed.
func Run(w io.Writer, dir string, patterns []string) ([]Finding, error) {
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		return nil, err
	}
	// A pattern that selects nothing is almost always a typo; failing loudly
	// (like the go tool) keeps a misspelled CI invocation from silently
	// passing the gate.
	for _, p := range patterns {
		matched := false
		for _, pkg := range pkgs {
			if matchPattern(p, loader.ModulePath, pkg.Path) {
				matched = true
				break
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matched no packages", p)
		}
	}
	findings := Analyze(loader, pkgs, nil, patterns)
	relativize(findings, dir)
	if err := Render(w, findings); err != nil {
		return nil, err
	}
	return findings, nil
}

// Analyze runs the analyzers (production set if nil) over every package
// matching patterns and returns allow-filtered, sorted findings. Malformed
// allow directives are themselves reported. The module call graph is built
// once here and shared by every analyzer.
func Analyze(loader *Loader, pkgs []*Package, analyzers []*Analyzer, patterns []string) []Finding {
	if analyzers == nil {
		analyzers = Analyzers()
	}
	allows, findings := parseAllows(loader.Fset, pkgs)
	graph := buildModuleGraph(pkgs)
	for _, pkg := range pkgs {
		if !matchAny(patterns, loader.ModulePath, pkg.Path) {
			continue
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     loader.Fset,
				Pkg:      pkg,
				Graph:    graph,
				findings: &findings,
			}
			a.Run(pass)
		}
	}
	kept := findings[:0]
	for _, f := range findings {
		if !allows.allows(f.Analyzer, f.File, f.Line) {
			kept = append(kept, f)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return kept
}

// Render writes findings as file:line text lines.
func Render(w io.Writer, findings []Finding) error {
	for _, f := range findings {
		if _, err := fmt.Fprintln(w, f); err != nil {
			return err
		}
	}
	return nil
}

// relativize rewrites finding paths relative to dir for readable output.
func relativize(findings []Finding, dir string) {
	for i, f := range findings {
		if rel, err := filepath.Rel(dir, f.File); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].File = rel
		}
	}
}

// matchAny reports whether pkgPath is selected by any pattern.
func matchAny(patterns []string, modulePath, pkgPath string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, p := range patterns {
		if matchPattern(p, modulePath, pkgPath) {
			return true
		}
	}
	return false
}

// matchPattern implements the small pattern language of the go tool that the
// CLI needs: "./..." and "./x/..." relative wildcards, exact relative paths,
// and full import paths with optional "/..." suffix.
func matchPattern(pattern, modulePath, pkgPath string) bool {
	pattern = strings.TrimSuffix(pattern, "/")
	if rest, ok := strings.CutPrefix(pattern, "./"); ok || pattern == "." {
		if pattern == "." {
			rest = ""
		}
		if rest == "" {
			pattern = modulePath
		} else if rest == "..." {
			pattern = modulePath + "/..."
		} else {
			pattern = modulePath + "/" + rest
		}
	}
	if sub, ok := strings.CutSuffix(pattern, "/..."); ok {
		return pkgPath == sub || strings.HasPrefix(pkgPath, sub+"/")
	}
	return pkgPath == pattern
}
