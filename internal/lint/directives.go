package lint

import (
	"strings"
)

// Suppression directives.
//
// A finding is suppressed by a comment of the form
//
//	//lint:allow <analyzer> <reason>
//
// placed either on the same line as the flagged code (trailing
// comment) or on the line directly above it. The reason is mandatory:
// a suppression without a stated justification is itself reported as a
// `directive` finding, so the gate cannot be silenced silently. A
// directive naming a nonexistent analyzer is likewise an error — never
// a silent no-op — and a well-formed directive that suppresses nothing
// is flagged stale by the unusedallow check.

// directiveAnalyzer names the pseudo-analyzer used for malformed
// //lint: comments. It is not suppressible via //lint:allow.
const directiveAnalyzer = "directive"

type allowKey struct {
	file     string
	line     int
	analyzer string
}

// directive is one well-formed //lint:allow comment.
type directive struct {
	file     string
	line     int
	col      int
	analyzer string
	// used is set when the directive suppresses at least one finding.
	used bool
}

type suppressor struct {
	allowed    map[allowKey]*directive
	directives []*directive
	malformed  []Finding
}

func newSuppressor() *suppressor {
	return &suppressor{allowed: map[allowKey]*directive{}}
}

// scan collects every //lint: directive in the package.
func (s *suppressor) scan(pkg *Package) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				verb, rest, _ := strings.Cut(text, " ")
				if verb != "allow" {
					s.malformed = append(s.malformed, Finding{
						File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Analyzer: directiveAnalyzer,
						Message:  "unknown lint directive //lint:" + verb + " (only //lint:allow <analyzer> <reason> is recognized)",
					})
					continue
				}
				name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				if name == "" || strings.TrimSpace(reason) == "" {
					s.malformed = append(s.malformed, Finding{
						File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Analyzer: directiveAnalyzer,
						Message:  "malformed //lint:allow: want //lint:allow <analyzer> <reason>",
					})
					continue
				}
				if !knownAnalyzer(name) {
					s.malformed = append(s.malformed, Finding{
						File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Analyzer: directiveAnalyzer,
						Message:  "//lint:allow names unknown analyzer " + name,
					})
					continue
				}
				d := &directive{file: pos.Filename, line: pos.Line, col: pos.Column, analyzer: name}
				s.directives = append(s.directives, d)
				key := allowKey{pos.Filename, pos.Line, name}
				if s.allowed[key] == nil {
					s.allowed[key] = d
				}
			}
		}
	}
}

// allows reports whether a directive on the finding's line or the line
// above covers it, marking that directive used. Directive findings
// themselves can't be allowed.
func (s *suppressor) allows(f Finding) bool {
	if f.Analyzer == directiveAnalyzer {
		return false
	}
	return s.use(f.File, f.Line, f.Analyzer) || s.use(f.File, f.Line-1, f.Analyzer)
}

// use marks the directive at (file, line) covering analyzer as used.
func (s *suppressor) use(file string, line int, analyzer string) bool {
	d := s.allowed[allowKey{file, line, analyzer}]
	if d == nil {
		return false
	}
	d.used = true
	return true
}

func knownAnalyzer(name string) bool {
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}
