package lint

import (
	"fmt"
	"go/token"
	"slices"
	"strings"
)

// Allow-comment grammar:
//
//	//overlint:allow <analyzer>[,<analyzer>...] -- <reason>
//
// The directive suppresses findings from the named analyzers on the
// directive's own line or on the line immediately below it, so it can sit
// either at the end of the offending line or on its own line just above. The
// "-- reason" part is mandatory: an exception without a recorded
// justification is itself a finding. So is a name outside Analyzers(): a
// directive for a deleted or misspelled analyzer would suppress nothing. So
// is a name that suppressed nothing in a run of its analyzer over the
// directive's package: the exemption it records no longer has a subject.

const allowPrefix = "//overlint:allow"

// allowDirective is one parsed //overlint:allow comment.
type allowDirective struct {
	Pkg       string // import path of the package holding the directive
	File      string
	Line, Col int
	Analyzers []string
	Reason    string
	used      []bool // used[i]: Analyzers[i] suppressed a finding
}

// allowSet holds the parsed directives in source order.
type allowSet []*allowDirective

// parseAllows scans every comment in the loaded packages, returning the
// directive set plus findings for malformed directives (missing reason or
// unknown analyzer).
func parseAllows(fset *token.FileSet, pkgs []*Package) (allowSet, []Finding) {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var set allowSet
	var bad []Finding
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, allowPrefix) {
						continue
					}
					pos := fset.Position(c.Pos())
					d, problem := parseAllow(c.Text, known)
					if problem != "" {
						bad = append(bad, Finding{
							File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Analyzer: "overlint",
							Message:  "malformed directive: " + problem,
						})
						continue
					}
					d.Pkg, d.File, d.Line, d.Col = pkg.Path, pos.Filename, pos.Line, pos.Column
					d.used = make([]bool, len(d.Analyzers))
					set = append(set, &d)
				}
			}
		}
	}
	return set, bad
}

// parseAllow parses one allow comment and checks its analyzer names against
// known, returning the directive or what is wrong with it.
func parseAllow(text string, known map[string]bool) (allowDirective, string) {
	d, ok := parseAllowText(text)
	if !ok {
		return d, `want "//overlint:allow <analyzer>[,...] -- <reason>"`
	}
	for _, name := range d.Analyzers {
		if !known[name] {
			return d, fmt.Sprintf("no analyzer named %q", name)
		}
	}
	return d, ""
}

// parseAllowText parses the text of one allow comment.
func parseAllowText(text string) (allowDirective, bool) {
	rest := strings.TrimPrefix(text, allowPrefix)
	// Require a space (or end) after the prefix so "//overlint:allowx" fails.
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return allowDirective{}, false
	}
	names, reason, found := strings.Cut(rest, "--")
	reason = strings.TrimSpace(reason)
	if !found || reason == "" {
		return allowDirective{}, false
	}
	var d allowDirective
	d.Reason = reason
	for _, n := range strings.Split(names, ",") {
		if n = strings.TrimSpace(n); n != "" {
			d.Analyzers = append(d.Analyzers, n)
		}
	}
	if len(d.Analyzers) == 0 {
		return allowDirective{}, false
	}
	return d, true
}

// allows reports whether a finding by analyzer at file:line is suppressed,
// and marks the directive name that suppresses it as used.
func (s allowSet) allows(analyzer, file string, line int) bool {
	for _, d := range s {
		if d.File != file || d.Line != line && d.Line != line-1 {
			continue
		}
		if i := slices.Index(d.Analyzers, analyzer); i >= 0 {
			d.used[i] = true
			return true
		}
	}
	return false
}

// unused reports each directive name that suppressed nothing, counting only
// directives in packages the run analyzed and names of analyzers that ran.
func (s allowSet) unused(analyzed func(pkgPath string) bool, ran []*Analyzer) []Finding {
	var out []Finding
	for _, d := range s {
		if !analyzed(d.Pkg) {
			continue
		}
		for i, name := range d.Analyzers {
			if !d.used[i] && slices.ContainsFunc(ran, func(a *Analyzer) bool { return a.Name == name }) {
				out = append(out, Finding{
					File: d.File, Line: d.Line, Col: d.Col,
					Analyzer: "overlint",
					Message:  "unused directive: allow " + name + " suppresses nothing",
				})
			}
		}
	}
	return out
}
