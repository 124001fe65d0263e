package experiment

import (
	"fmt"
	"io"

	"mcddvfs/internal/mcd"
)

// FigureStream renders a benchmark × scheme figure incrementally: the
// banner and column header go out at construction, each complete row
// as RunMatrixContext's RowFlush delivers it, and the AVERAGE line
// plus notes at Finish. Because it shares every formatting helper with
// Matrix.figure and RowFlush delivers every row in benchmark order,
// the streamed bytes are identical to rendering the finished matrix —
// the differential test pins that. The interrupted path needs nothing
// special: RunMatrixContext drains the row frontier even on
// cancellation, so Finish completes the same file a render of the
// partial matrix would.
//
// A FigureStream is not safe for concurrent use on its own;
// RunMatrixContext serializes RowFlush calls. Finish must follow the
// last row: call it from the RowFlush call that delivers the row with
// Index+1 == Total, or after RunMatrixContext returns. Write errors
// stick: the first one stops output and comes back from Finish.
type FigureStream struct {
	w       io.Writer
	sel     comparisonSelector
	rows    Matrix   // every row delivered so far, for the AVERAGE line
	omitted []string // omittedRow of each incomplete row
	err     error
}

// figureStreamSpecs maps the streamable figure IDs to their titles and
// metric selectors, mirroring Matrix.Figure9/Figure10. (fig11 is not
// streamable: it renders a benchmark subset with summary notes that
// need the finished matrix.)
var figureStreamSpecs = map[string]struct {
	title string
	sel   comparisonSelector
}{
	"fig9": {"Energy savings vs no-DVFS baseline",
		func(sav, perf, edp float64) float64 { return sav }},
	"fig10": {"Performance degradation vs no-DVFS baseline",
		func(sav, perf, edp float64) float64 { return perf }},
}

// NewFigureStream starts streaming figure id (fig9 or fig10) for a
// sweep configured by opt, writing the banner and header immediately.
// Wire the returned stream's Row into Options.RowFlush and call Finish
// after the last row.
func NewFigureStream(w io.Writer, id string, opt Options) (*FigureStream, error) {
	spec, ok := figureStreamSpecs[id]
	if !ok {
		return nil, invalidSpec(fmt.Errorf("experiment: figure %q is not streamable", id))
	}
	schemes, err := matrixSchemes(opt)
	if err != nil {
		return nil, err
	}
	f := &FigureStream{w: w, sel: spec.sel, rows: Matrix{Schemes: schemes, Results: map[string]map[Scheme]*mcd.Result{}}}
	f.line("==== %s: %s ====", id, spec.title)
	f.line("%s", figureHeader(schemes))
	return f, nil
}

// Row consumes one RowEvent: a complete row is rendered, an incomplete
// one named in the omitted-rows note.
func (f *FigureStream) Row(ev RowEvent) {
	f.rows.Benchmarks = append(f.rows.Benchmarks, ev.Bench)
	f.rows.Results[ev.Bench] = ev.Results
	if o := omittedRow(ev.Bench, f.rows.Schemes, ev.Results); o != "" {
		f.omitted = append(f.omitted, o)
		return
	}
	f.line("%s", figureRow(ev.Bench, f.rows.Schemes, ev.Results, f.sel))
}

// Finish writes the AVERAGE row over the rows delivered and the
// trailing notes, and returns the first write error.
func (f *FigureStream) Finish() error {
	f.line("%s", f.rows.figureAverage(f.rows.Schemes, f.sel))
	if n := figureSkippedNote(f.omitted); n != "" {
		f.line("note: %s", n)
	}
	f.line("")
	return f.err
}

// line writes one formatted line, latching the first error.
func (f *FigureStream) line(format string, args ...any) {
	if f.err != nil {
		return
	}
	_, f.err = fmt.Fprintf(f.w, format+"\n", args...)
}
