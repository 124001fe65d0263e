package experiment

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"mcddvfs/internal/mcd"
)

// rowsMatrix is the matrix of the rows events delivered, in delivery
// order, with the events' scheme columns: what a streaming reader of
// RowFlush holds after the last of them.
func rowsMatrix(events []RowEvent) *Matrix {
	m := &Matrix{Results: map[string]map[Scheme]*mcd.Result{}}
	for _, ev := range events {
		m.Schemes = ev.Schemes
		m.Benchmarks = append(m.Benchmarks, ev.Bench)
		m.Results[ev.Bench] = ev.Results
	}
	return m
}

// TestRowFlushOrderedAndStreamIdentical pins the incremental-render
// contract: RowFlush delivers every benchmark exactly once in
// benchmark order, with the sweep's scheme columns, and the figures
// rendered over the delivered rows are the batch renders of the
// returned matrix.
func TestRowFlushOrderedAndStreamIdentical(t *testing.T) {
	t.Parallel()
	opt := fastOpt("adpcm_encode", "gzip", "swim")
	opt.Schemes = []Scheme{SchemeAttackDecay, SchemeAdaptive}

	var events []RowEvent
	opt.RowFlush = func(ev RowEvent) { events = append(events, ev) }
	m, err := RunMatrixContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}

	if len(events) != 3 {
		t.Fatalf("got %d row events, want 3", len(events))
	}
	for i, ev := range events {
		if ev.Index != i || ev.Total != 3 || ev.Bench != opt.Benchmarks[i] {
			t.Errorf("event %d out of order: %+v", i, ev)
		}
		if !ev.Complete {
			t.Errorf("event %d incomplete: %+v", i, ev)
		}
		if !slices.Equal(ev.Schemes, m.Schemes) {
			t.Errorf("event %d schemes %v, matrix %v", i, ev.Schemes, m.Schemes)
		}
	}
	streamed := rowsMatrix(events)
	for _, fig := range []func(*Matrix) Report{(*Matrix).Figure9, (*Matrix).Figure10} {
		got, want := fig(streamed), fig(m)
		if got.String() != want.String() {
			t.Errorf("figure over the delivered rows differs from batch:\n--- rows\n%s--- batch\n%s", got.String(), want.String())
		}
	}
}

// TestRowFlushDrainsOnCancellation: the interrupted path shares the
// flush path — a cancelled sweep still delivers one event per
// benchmark (via the post-sweep drain), and the figure over the
// delivered rows equals the batch render of the partial matrix.
func TestRowFlushDrainsOnCancellation(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // every cell drains as skipped

	opt := fastOpt("gzip", "swim")
	var events []RowEvent
	opt.RowFlush = func(ev RowEvent) { events = append(events, ev) }
	m, err := RunMatrixContext(ctx, opt)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if len(events) != 2 || events[0].Complete || events[1].Complete {
		t.Fatalf("cancelled sweep events: %+v", events)
	}
	got, want := rowsMatrix(events).Figure9(), m.Figure9()
	if got.String() != want.String() {
		t.Errorf("cancelled rows differ from batch:\n--- rows\n%s--- batch\n%s", got.String(), want.String())
	}
	if !strings.Contains(got.String(), "omitted") {
		t.Errorf("omitted-rows note missing:\n%s", got.String())
	}
}
