// Package par provides the generic worker-pool trial runner shared by the
// dining engine and experiment suite and the Monte-Carlo checks (verify). It
// is a leaf package so both can import it without a cycle.
//
// The contract that makes parallel trials deterministic lives here: trial
// functions derive all randomness from their index, results land at their
// index, and callers aggregate in index order — so scheduling is
// unobservable and every aggregate (including floating-point folds) is
// bit-identical to a sequential run.
package par

import (
	"context"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"
)

// Trials runs trials independent trial functions across min(workers, trials)
// goroutines and returns their results in trial-index order. A workers value
// <= 0 means one worker per available CPU; workers == 1 runs inline with no
// goroutines. run receives the trial index and must derive all randomness
// from it (typically via a per-trial seed) — it must not communicate with
// other trials.
//
// If any trial fails, Trials returns the error of the lowest-indexed failing
// trial (so the reported error is deterministic too) and remaining trials
// may be skipped.
func Trials[T any](workers, trials int, run func(trial int) (T, error)) ([]T, error) {
	if trials <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	results := make([]T, trials)
	if workers == 1 {
		for i := 0; i < trials; i++ {
			var err error
			if results[i], err = run(i); err != nil {
				return nil, err
			}
		}
		return results, nil
	}

	var (
		next   atomic.Int64 // next trial index to claim
		failed atomic.Bool  // fast-path flag: some trial errored
		wg     sync.WaitGroup
		mu     sync.Mutex
		errAt  = -1 // lowest failing trial index, under mu
		retErr error
	)
	wg.Add(workers)
	for wkr := 0; wkr < workers; wkr++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= trials || failed.Load() {
					return
				}
				res, err := run(i)
				if err != nil {
					failed.Store(true)
					mu.Lock()
					if errAt < 0 || i < errAt {
						errAt, retErr = i, err
					}
					mu.Unlock()
					return
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	if retErr != nil {
		return nil, retErr
	}
	return results, nil
}

// Streamed couples a trial index with its result (or the error that trial
// returned). Index is always a valid trial index; a context-cancellation
// error is reported with the index of a trial whose result was not
// delivered.
type Streamed[T any] struct {
	// Index is the trial index the value or error belongs to.
	Index int
	// Value is the trial's result when Err is nil.
	Value T
	// Err is the trial's error, or the context's error for trials abandoned
	// by cancellation.
	Err error
}

// Stream runs trials independent trial functions across min(workers, trials)
// goroutines and yields each result as it completes — in completion order,
// not index order. The determinism contract of Trials still applies: run must
// derive everything from its index, so the value yielded for a given index is
// identical whatever the worker count or completion order; only the order of
// the yielded sequence varies. Callers that aggregate must do so in index
// order (collect, then fold by Index) to stay bit-identical to a sequential
// run.
//
// A workers value <= 0 means one worker per available CPU; workers == 1 runs
// inline with no goroutines. The stream ends early when the consumer breaks
// out of the loop or ctx is cancelled; a cancellation that left trials
// undelivered yields one terminal item carrying ctx's error on an
// undelivered index (a cancellation arriving after every result was
// delivered yields nothing — the stream completed). Unlike Trials, a trial
// error does not cancel the remaining trials — it is yielded like any other
// item, and the consumer decides whether to keep ranging.
func Stream[T any](ctx context.Context, workers, trials int, run func(trial int) (T, error)) iter.Seq[Streamed[T]] {
	return func(yield func(Streamed[T]) bool) {
		if trials <= 0 {
			return
		}
		if ctx == nil {
			ctx = context.Background()
		}
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > trials {
			workers = trials
		}
		if workers == 1 {
			for i := 0; i < trials; i++ {
				if err := ctx.Err(); err != nil {
					yield(Streamed[T]{Index: i, Err: err})
					return
				}
				v, err := run(i)
				if !yield(Streamed[T]{Index: i, Value: v, Err: err}) {
					return
				}
			}
			return
		}

		var (
			next    atomic.Int64
			wg      sync.WaitGroup
			results = make(chan Streamed[T], workers)
			done    = make(chan struct{}) // closed when the consumer stops pulling
		)
		wg.Add(workers)
		for wkr := 0; wkr < workers; wkr++ {
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					case <-ctx.Done():
						return
					default:
					}
					i := int(next.Add(1)) - 1
					if i >= trials {
						return
					}
					v, err := run(i)
					select {
					case results <- Streamed[T]{Index: i, Value: v, Err: err}:
					case <-done:
						return
					}
				}
			}()
		}
		go func() {
			wg.Wait()
			close(results)
		}()
		defer func() {
			close(done)
			for range results {
				// Drain so the workers' pending sends unblock and the channel
				// closes; their results are discarded.
			}
		}()
		delivered := make([]bool, trials)
		deliveredCount := 0
		for r := range results {
			delivered[r.Index] = true
			deliveredCount++
			if !yield(r) {
				return
			}
		}
		if err := ctx.Err(); err != nil && deliveredCount < trials {
			// Workers bailed out on cancellation with results outstanding;
			// report exactly one terminal error on the first undelivered
			// index. A cancellation after full delivery yields nothing.
			for i := 0; i < trials; i++ {
				if !delivered[i] {
					yield(Streamed[T]{Index: i, Err: err})
					return
				}
			}
		}
	}
}
