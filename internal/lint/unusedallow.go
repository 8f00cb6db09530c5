package lint

// UnusedAllow flags stale `//lint:allow` directives: well-formed
// suppressions that covered no finding in this run. A stale allow is
// worse than dead code — it documents an invariant violation that no
// longer exists, and it will silently swallow the next real finding
// that lands on its line.
//
// Staleness is only judged for directives whose named analyzer
// actually ran (an `ofc-lint -run wallclock` pass must not flag
// seededrand allows), and only when unusedallow itself is in the run
// set. A stale-allow finding can itself be suppressed with
// `//lint:allow unusedallow <reason>` — for directives that are only
// exercised on another platform or under a build tag — and an
// unusedallow meta-directive that suppresses nothing is reported in
// turn, so the hygiene check cannot rot either.
var UnusedAllow = &Analyzer{
	Name: "unusedallow",
	Doc:  "flag //lint:allow directives that suppress no finding",
}

// staleAllows runs at the end of lint.Run, after every analyzer
// reported and suppression was resolved (marking directives used).
func staleAllows(s *suppressor, analyzers []*Analyzer) []Finding {
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	if !ran[UnusedAllow.Name] {
		return nil
	}
	var out []Finding
	for _, d := range s.directives {
		if d.analyzer == UnusedAllow.Name || d.used || !ran[d.analyzer] {
			continue
		}
		f := Finding{
			File: d.file, Line: d.line, Col: d.col,
			Analyzer: UnusedAllow.Name,
			Message:  "stale //lint:allow " + d.analyzer + ": no finding on this line to suppress; delete the directive",
		}
		// Meta-suppression: //lint:allow unusedallow <reason> on the
		// directive's line (or above) keeps it. This marks the meta
		// directive used before the loop below judges it.
		if s.use(d.file, d.line, UnusedAllow.Name) || s.use(d.file, d.line-1, UnusedAllow.Name) {
			f.Suppressed = true
		}
		out = append(out, f)
	}
	// An unusedallow meta-directive that suppressed nothing is itself
	// stale. It is not further suppressible: the chain ends here.
	for _, d := range s.directives {
		if d.analyzer != UnusedAllow.Name || d.used {
			continue
		}
		out = append(out, Finding{
			File: d.file, Line: d.line, Col: d.col,
			Analyzer: UnusedAllow.Name,
			Message:  "stale //lint:allow unusedallow: no stale directive here to keep; delete it",
		})
	}
	return out
}
