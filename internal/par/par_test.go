package par

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestStreamCoversEveryIndexOnce(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 4, 64} {
		seen := make([]bool, 100)
		for s := range Stream(context.Background(), workers, 100, func(i int) (int, error) { return i * i, nil }) {
			if s.Err != nil {
				t.Fatal(s.Err)
			}
			if seen[s.Index] {
				t.Fatalf("workers=%d: index %d yielded twice", workers, s.Index)
			}
			seen[s.Index] = true
			if s.Value != s.Index*s.Index {
				t.Fatalf("workers=%d: index %d carries value %d", workers, s.Index, s.Value)
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("workers=%d: index %d never yielded", workers, i)
			}
		}
	}
}

func TestStreamEarlyBreakDoesNotDeadlock(t *testing.T) {
	t.Parallel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		n := 0
		for s := range Stream(context.Background(), 8, 1000, func(i int) (int, error) { return i, nil }) {
			if s.Err != nil {
				t.Error(s.Err)
			}
			n++
			if n == 5 {
				break
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("breaking out of a Stream deadlocked")
	}
}

func TestStreamYieldsTrialErrors(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	var sawBoom, sawOK bool
	for s := range Stream(context.Background(), 2, 10, func(i int) (int, error) {
		if i == 3 {
			return 0, boom
		}
		return i, nil
	}) {
		if errors.Is(s.Err, boom) {
			if s.Index != 3 {
				t.Errorf("boom reported at index %d", s.Index)
			}
			sawBoom = true
		} else if s.Err == nil {
			sawOK = true
		}
	}
	if !sawBoom || !sawOK {
		t.Errorf("stream should yield both successes and the error (boom=%v ok=%v)", sawBoom, sawOK)
	}
}

func TestStreamCancelledContext(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var last Streamed[int]
	count := 0
	for s := range Stream(ctx, 4, 50, func(i int) (int, error) { return i, nil }) {
		last = s
		count++
	}
	if count == 0 || !errors.Is(last.Err, context.Canceled) {
		t.Errorf("cancelled stream yielded %d items, last err %v; want a terminal context error", count, last.Err)
	}
}

func TestStreamZeroTrials(t *testing.T) {
	t.Parallel()
	for range Stream(context.Background(), 4, 0, func(i int) (int, error) { return i, nil }) {
		t.Fatal("zero-trial stream yielded")
	}
}

func TestTrialsOrderAndCoverage(t *testing.T) {
	t.Parallel()
	got, err := Trials(8, 100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("got %d results, want 100", len(got))
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d (results must land at their trial index)", i, v, i*i)
		}
	}
}

func TestTrialsEdgeCases(t *testing.T) {
	t.Parallel()
	if got, err := Trials(4, 0, func(int) (int, error) { return 0, nil }); err != nil || got != nil {
		t.Errorf("zero trials: got %v, %v", got, err)
	}
	// More workers than trials must still cover every index exactly once.
	got, err := Trials(64, 3, func(i int) (int, error) { return i, nil })
	if err != nil || len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("workers > trials: got %v, %v", got, err)
	}
}

func TestTrialsPropagatesError(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	_, err := Trials(8, 50, func(i int) (int, error) {
		if i%7 == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}
