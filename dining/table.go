package dining

import (
	"fmt"
	"strings"
)

// Table is a titled result table — one experiment of the suite, or a sweep
// matrix — plus free-form notes, rendered to Markdown (dpbench -markdown), to
// plain text for the CLI, or to JSON (the field names below are a stable
// output format).
type Table struct {
	// ID is the experiment identifier (for example "E-T3"; see Experiments).
	ID string `json:"id"`
	// Title is a one-line description.
	Title string `json:"title"`
	// Reproduces names the paper artifact being reproduced.
	Reproduces string `json:"reproduces,omitempty"`
	// Header holds the column names.
	Header []string `json:"header"`
	// Rows holds the table body.
	Rows [][]string `json:"rows"`
	// Notes carries additional observations (bounds, deviations, caveats).
	Notes []string `json:"notes,omitempty"`
}

// AddRow appends a row built from the stringified cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a formatted note.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Markdown renders the table as a Markdown section.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", t.ID, t.Title)
	if t.Reproduces != "" {
		fmt.Fprintf(&b, "*Reproduces:* %s\n\n", t.Reproduces)
	}
	if len(t.Header) > 0 {
		b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
		sep := make([]string, len(t.Header))
		for i := range sep {
			sep[i] = "---"
		}
		b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
		for _, row := range t.Rows {
			b.WriteString("| " + strings.Join(row, " | ") + " |\n")
		}
		b.WriteString("\n")
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&b, "- %s\n", note)
	}
	if len(t.Notes) > 0 {
		b.WriteString("\n")
	}
	return b.String()
}

// Text renders the table as aligned plain text for terminal output.
func (t *Table) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n", t.ID, t.Title)
	if t.Reproduces != "" {
		fmt.Fprintf(&b, "reproduces: %s\n", t.Reproduces)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
			} else {
				b.WriteString(cell + "  ")
			}
		}
		b.WriteString("\n")
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
	}
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", note)
	}
	return b.String()
}

// RenderMarkdown concatenates a set of tables into one Markdown document
// under the given introduction (the body of dpbench -markdown).
func RenderMarkdown(intro string, tables []*Table) string {
	var b strings.Builder
	b.WriteString(intro)
	if !strings.HasSuffix(intro, "\n") {
		b.WriteString("\n")
	}
	b.WriteString("\n")
	for _, t := range tables {
		b.WriteString(t.Markdown())
	}
	return b.String()
}
