package lint

import (
	"fmt"
	"go/token"
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
// directive for a deleted or misspelled analyzer would suppress nothing.

const allowPrefix = "//overlint:allow"

// allowDirective is one parsed //overlint:allow comment.
type allowDirective struct {
	File      string
	Line      int
	Analyzers []string
	Reason    string
}

// allowSet indexes directives for suppression lookups.
type allowSet struct {
	byLine map[string]map[int][]allowDirective
}

// parseAllows scans every comment in the loaded packages, returning the
// directive set plus findings for malformed directives (missing reason or
// unknown analyzer).
func parseAllows(fset *token.FileSet, pkgs []*Package) (*allowSet, []Finding) {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	set := &allowSet{byLine: make(map[string]map[int][]allowDirective)}
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
					d.File, d.Line = pos.Filename, pos.Line
					m := set.byLine[d.File]
					if m == nil {
						m = make(map[int][]allowDirective)
						set.byLine[d.File] = m
					}
					m[d.Line] = append(m[d.Line], d)
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

// allows reports whether a finding by analyzer at file:line is suppressed.
func (s *allowSet) allows(analyzer, file string, line int) bool {
	m := s.byLine[file]
	if m == nil {
		return false
	}
	for _, l := range [2]int{line, line - 1} {
		for _, d := range m[l] {
			for _, name := range d.Analyzers {
				if name == analyzer {
					return true
				}
			}
		}
	}
	return false
}
