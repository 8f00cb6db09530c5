package experiments

import (
	"fmt"
	"strings"
	"time"
	"unicode/utf8"
)

// Table is a rendered experiment result: a title, column headers and
// rows, printable in the same form the paper reports.
type Table struct {
	Title   string
	Note    string
	Headers []string
	Rows    [][]string
}

// Add appends a row of stringable cells.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case time.Duration:
			row[i] = fmtDur(v)
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// fmtDur renders durations with sensible units for the magnitude.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fµs", float64(d)/float64(time.Microsecond))
	}
}

// String renders the table with aligned columns, counting characters,
// not bytes: a "µs" cell is as wide as an "ms" one.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString("== " + t.Title + " ==\n")
	if t.Note != "" {
		sb.WriteString(t.Note + "\n")
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				for p := utf8.RuneCountInString(c); p < widths[i]; p++ {
					sb.WriteByte(' ')
				}
			}
		}
		sb.WriteByte('\n')
	}
	line(t.Headers)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return sb.String()
}

// pct formats a ratio as a percentage string.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// improvement is (base-new)/base.
func improvement(base, new time.Duration) float64 {
	if base == 0 {
		return 0
	}
	return float64(base-new) / float64(base)
}

// CSV renders the table as RFC-4180-ish CSV (header + rows), for
// feeding plots.
func (t *Table) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				sb.WriteByte('"')
				sb.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				sb.WriteByte('"')
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}
