package service

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/topology"
)

// plant builds a PaperSimPlant inventory with uniform per-node capacity.
func plant(t *testing.T, types, perType int) (*topology.Topology, *inventory.Inventory) {
	t.Helper()
	topo := topology.PaperSimPlant()
	max := make([][]int, topo.Nodes())
	for i := range max {
		max[i] = make([]int, types)
		for j := range max[i] {
			max[i][j] = perType
		}
	}
	inv, err := inventory.NewFromMatrix(max)
	if err != nil {
		t.Fatalf("NewFromMatrix: %v", err)
	}
	return topo, inv
}

func TestServiceBasic(t *testing.T) {
	topo, inv := plant(t, 2, 2)
	svc, err := New(Config{Topology: topo, Inventory: inv, QueueCap: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p, err := svc.Place(model.Request{3, 1})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if got := entriesTotal(p.Entries); got != 4 {
		t.Fatalf("placement totals %d VMs, want 4", got)
	}
	// The commit must be visible through the RLock'd snapshot.
	if avail := inv.Available(); avail[0] != 60-3 || avail[1] != 60-1 {
		t.Fatalf("Available = %v after place, want [57 59]", avail)
	}
	if err := svc.Release(p.Entries); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if avail := inv.Available(); avail[0] != 60 || avail[1] != 60 {
		t.Fatalf("Available = %v after release, want [60 60]", avail)
	}
	// Oversized request with the queue disabled: immediate ErrInsufficient.
	if _, err := svc.Place(model.Request{1000, 0}); !errors.Is(err, placement.ErrInsufficient) {
		t.Fatalf("oversized Place err = %v, want ErrInsufficient", err)
	}
	// Releasing something never placed is a hard error, not a panic.
	if err := svc.Release([]affinity.VMEntry{{Node: 0, Type: 0, Count: 1}}); err == nil {
		t.Fatalf("release of unplaced VMs succeeded")
	}
	st := svc.Stats()
	if st.Placed != 1 || st.Released != 1 || st.Rejected != 1 {
		t.Fatalf("stats = %+v, want Placed=1 Released=1 Rejected=1", st)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := svc.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close err = %v, want ErrClosed", err)
	}
	if _, err := svc.Place(model.Request{1, 0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Place after Close err = %v, want ErrClosed", err)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
}

func TestServiceConfigErrors(t *testing.T) {
	topo, inv := plant(t, 2, 2)
	if _, err := New(Config{Topology: topo}); err == nil {
		t.Fatalf("New without inventory succeeded")
	}
	if _, err := New(Config{Topology: topo, Inventory: inv, Ordered: true, GlobalOpt: true}); err == nil {
		t.Fatalf("New with Ordered+GlobalOpt succeeded")
	}
	bad := &placement.OnlineHeuristic{Policy: placement.ExhaustiveCenters}
	if _, err := New(Config{Topology: topo, Inventory: inv, Online: bad}); err == nil {
		t.Fatalf("New with non-indexed placer succeeded")
	}
	svc, err := New(Config{Topology: topo, Inventory: inv})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		if err := svc.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	if _, err := svc.PlaceAt(0, model.Request{1, 1}); err == nil {
		t.Fatalf("PlaceAt on unordered service succeeded")
	}
	if err := svc.ReleaseAt(0, nil); err == nil {
		t.Fatalf("ReleaseAt on unordered service succeeded")
	}
}

// TestServiceQueueWaits pins the wait-queue integration: a placement that
// does not fit blocks its caller until a release frees capacity, then
// completes with the freed VMs.
func TestServiceQueueWaits(t *testing.T) {
	topo, inv := plant(t, 1, 0)
	// Give only node 0 any capacity so the second cluster cannot fit.
	if err := inv.SetCapacity(0, 0, 4); err != nil {
		t.Fatalf("SetCapacity: %v", err)
	}
	svc, err := New(Config{Topology: topo, Inventory: inv})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	first, err := svc.Place(model.Request{4})
	if err != nil {
		t.Fatalf("first Place: %v", err)
	}
	got := make(chan Placement, 1)
	go func() {
		p, err := svc.Place(model.Request{3})
		if err != nil {
			t.Errorf("queued Place: %v", err)
		}
		got <- p
	}()
	// The second placement must be parked, not answered.
	select {
	case <-got:
		t.Fatalf("queued Place completed before capacity freed")
	case <-time.After(50 * time.Millisecond):
	}
	if st := svc.Stats(); st.Queued != 1 {
		t.Fatalf("stats = %+v, want Queued=1", st)
	}
	if err := svc.Release(first.Entries); err != nil {
		t.Fatalf("Release: %v", err)
	}
	select {
	case p := <-got:
		if entriesTotal(p.Entries) != 3 {
			t.Fatalf("woken placement totals %d VMs, want 3", entriesTotal(p.Entries))
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("queued Place never woke after release")
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestServiceCloseFailsWaiters pins shutdown: a placement parked in the
// wait queue is answered with ErrClosed, not leaked.
func TestServiceCloseFailsWaiters(t *testing.T) {
	topo, inv := plant(t, 1, 0)
	if err := inv.SetCapacity(0, 0, 1); err != nil {
		t.Fatalf("SetCapacity: %v", err)
	}
	svc, err := New(Config{Topology: topo, Inventory: inv})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := svc.Place(model.Request{1}); err != nil {
		t.Fatalf("Place: %v", err)
	}
	errC := make(chan error, 1)
	go func() {
		_, err := svc.Place(model.Request{1})
		errC <- err
	}()
	for svc.Stats().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-errC:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("parked Place err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("parked Place never answered after Close")
	}
}

// TestServiceGlobalOpt drives the batch arm: concurrent placements
// coalesce and are served by the global sub-optimization placer; commits
// and releases still conserve the inventory.
func TestServiceGlobalOpt(t *testing.T) {
	topo, inv := plant(t, 2, 3)
	svc, err := New(Config{
		Topology: topo, Inventory: inv,
		GlobalOpt: true,
		BatchSize: 8,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const clients = 16
	var wg sync.WaitGroup
	placements := make([]Placement, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p, err := svc.Place(model.Request{1 + w%3, 2})
			if err != nil {
				t.Errorf("client %d: %v", w, err)
				return
			}
			placements[w] = p
		}(w)
	}
	wg.Wait()
	for w := range placements {
		if want := 3 + w%3; entriesTotal(placements[w].Entries) != want {
			t.Fatalf("client %d placement totals %d VMs, want %d", w, entriesTotal(placements[w].Entries), want)
		}
		if err := svc.Release(placements[w].Entries); err != nil {
			t.Fatalf("release %d: %v", w, err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for j, a := range inv.Available() {
		if a != 30*3 {
			t.Fatalf("Available[%d] = %d after full release, want 90", j, a)
		}
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
	if err := inv.TierIndex().CheckConsistent(); err != nil {
		t.Fatalf("tier index: %v", err)
	}
}

// runOrderedTrace serves one seeded trace in Ordered mode with the given
// number of client goroutines and returns a byte serialization of every
// outcome plus the full metrics and trace registries. Phase one places
// seqs [0,n); after a barrier, phase two releases each placement at seq
// n+i. The queue is disabled and the plant sized so every op answers
// immediately — Ordered mode would otherwise let a parked waiter deadlock
// a client that still owes later seqs.
func runOrderedTrace(t *testing.T, workers int, reqs []model.Request) []byte {
	t.Helper()
	topo, inv := plant(t, 3, 8)
	reg := obs.NewRegistry()
	svc, err := New(Config{
		Topology: topo, Inventory: inv,
		Ordered:  true,
		QueueCap: -1,
		// A tiny batch size cuts the drained intake into many batches
		// whose boundaries shift with the client count and scheduling —
		// exactly what the guarantee says must not matter.
		BatchSize: 4,
		Obs:       reg,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n := uint64(len(reqs))
	results := make([]Placement, n)
	resErrs := make([]error, n)
	run := func(phase func(seq uint64)) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for seq := uint64(w); seq < n; seq += uint64(workers) {
					phase(seq)
				}
			}(w)
		}
		wg.Wait()
	}
	run(func(seq uint64) {
		results[seq], resErrs[seq] = svc.PlaceAt(seq, reqs[seq])
	})
	run(func(seq uint64) {
		if resErrs[seq] != nil {
			// A refused placement still owes its release seq so the
			// stream stays contiguous; release nothing under it.
			if err := svc.ReleaseAt(n+seq, nil); err != nil {
				t.Errorf("empty release %d: %v", seq, err)
			}
			return
		}
		if err := svc.ReleaseAt(n+seq, results[seq].Entries); err != nil {
			t.Errorf("release %d: %v", seq, err)
		}
	})
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for j, a := range inv.Available() {
		if a != 30*8 {
			t.Fatalf("Available[%d] = %d after full release, want 240", j, a)
		}
	}
	var buf bytes.Buffer
	for seq := uint64(0); seq < n; seq++ {
		fmt.Fprintf(&buf, "%d err=%v dc=%g center=%d entries=%v\n",
			seq, resErrs[seq], results[seq].DC, results[seq].Center, results[seq].Entries)
	}
	if err := reg.WriteMetricsJSON(&buf); err != nil {
		t.Fatalf("WriteMetricsJSON: %v", err)
	}
	if err := reg.WriteTraceJSONL(&buf); err != nil {
		t.Fatalf("WriteTraceJSONL: %v", err)
	}
	return buf.Bytes()
}

// TestOrderedDeterminism is the PR's property test: the same seeded
// request trace served at 1, 8, and 64 client goroutines must produce
// byte-identical allocations, metrics, and event traces. Sequential
// per-request placement depends only on inventory state, which depends
// only on the seq-ordered operation prefix — so batch boundaries, flush
// timing, and client scheduling must all be invisible in the output.
func TestOrderedDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(4711))
	reqs := make([]model.Request, 96)
	for i := range reqs {
		reqs[i] = model.Request{rng.Intn(3), rng.Intn(3), rng.Intn(3)}
	}
	base := runOrderedTrace(t, 1, reqs)
	for _, workers := range []int{8, 64} {
		got := runOrderedTrace(t, workers, reqs)
		if !bytes.Equal(got, base) {
			t.Fatalf("%d-client run diverged from single-client run:\n--- 1 client ---\n%s\n--- %d clients ---\n%s",
				workers, firstDiff(base, got), workers, firstDiff(got, base))
		}
	}
}

// firstDiff trims two byte serializations to the region around their first
// difference, keeping failure output readable.
func firstDiff(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	hi := i + 160
	if hi > len(a) {
		hi = len(a)
	}
	return a[lo:hi]
}

// TestServiceRaceHammer hammers concurrent Place/Release through the wait
// queue under -race: the apply loop is the inventory's only writer, so the
// RemainingView/TierIndex aliasing that was racy under direct concurrent
// simulator access is now provably clean. Every request fits the empty
// plant, so whenever a placement waits, some other client holds (and will
// release) capacity — the hammer cannot deadlock.
func TestServiceRaceHammer(t *testing.T) {
	topo, inv := plant(t, 2, 2) // 60 slots per type
	svc, err := New(Config{Topology: topo, Inventory: inv, BatchSize: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const clients = 8
	iters := 50
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(9000 + w)))
			for it := 0; it < iters; it++ {
				// Big enough that concurrent clusters contend for the
				// plant and some placements must wait in the queue.
				r := model.Request{5 + rng.Intn(16), 5 + rng.Intn(16)}
				p, err := svc.Place(r)
				if err != nil {
					t.Errorf("client %d iter %d: place %v: %v", w, it, r, err)
					return
				}
				if entriesTotal(p.Entries) != r[0]+r[1] {
					t.Errorf("client %d iter %d: placement totals %d, want %d",
						w, it, entriesTotal(p.Entries), r[0]+r[1])
					return
				}
				if err := svc.Release(p.Entries); err != nil {
					t.Errorf("client %d iter %d: release: %v", w, it, err)
					return
				}
			}
		}(w)
	}
	// Concurrent snapshot readers: only the RLock'd accessors, never the
	// view — the service owns that.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := inv.Remaining()
			for i := range snap {
				for _, v := range snap[i] {
					if v < 0 {
						t.Errorf("negative remaining in snapshot: %v", snap[i])
						return
					}
				}
			}
			_ = svc.Stats()
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := svc.Stats()
	if int(st.Placed) != clients*iters || int(st.Released) != clients*iters {
		t.Fatalf("stats = %+v, want %d placed and released", st, clients*iters)
	}
	for j, a := range inv.Available() {
		if a != 60 {
			t.Fatalf("Available[%d] = %d after hammer, want 60", j, a)
		}
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
	if err := inv.TierIndex().CheckConsistent(); err != nil {
		t.Fatalf("tier index after hammer: %v", err)
	}
}

func entriesTotal(entries []affinity.VMEntry) int {
	n := 0
	for _, e := range entries {
		n += e.Count
	}
	return n
}

// TestServiceRejectsNegativeEntries pins request validation on the apply
// loop: a vector with a negative entry is refused with a hard error (not
// ErrInsufficient), commits nothing, and moves no outcome counter — only
// the op and batch tallies of the one lone call. In Ordered mode the
// refused op still consumes its seq.
func TestServiceRejectsNegativeEntries(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		call func(svc *Service, held []affinity.VMEntry) error
	}{
		{"place", Config{QueueCap: -1}, func(svc *Service, _ []affinity.VMEntry) error {
			_, err := svc.Place(model.Request{-1, 2})
			return err
		}},
		{"place-negative-total", Config{}, func(svc *Service, _ []affinity.VMEntry) error {
			_, err := svc.Place(model.Request{-3, 0})
			return err
		}},
		{"place-global-opt", Config{GlobalOpt: true}, func(svc *Service, _ []affinity.VMEntry) error {
			_, err := svc.Place(model.Request{2, -1})
			return err
		}},
		{"place-at", Config{Ordered: true, QueueCap: -1}, func(svc *Service, _ []affinity.VMEntry) error {
			_, err := svc.PlaceAt(1, model.Request{-1, 2})
			return err
		}},
		{"grow", Config{QueueCap: -1}, func(svc *Service, held []affinity.VMEntry) error {
			_, err := svc.Grow(held, model.Request{-1, 0})
			return err
		}},
		{"shrink", Config{QueueCap: -1}, func(svc *Service, held []affinity.VMEntry) error {
			_, err := svc.Shrink(held, model.Request{-1, 1})
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo, inv := plant(t, 2, 2)
			cfg := tc.cfg
			cfg.Topology, cfg.Inventory = topo, inv
			svc, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			// One held cluster gives Grow and Shrink something to resize.
			var held Placement
			if cfg.Ordered {
				held, err = svc.PlaceAt(0, model.Request{2, 1})
			} else {
				held, err = svc.Place(model.Request{2, 1})
			}
			if err != nil {
				t.Fatalf("Place: %v", err)
			}
			avail, st := inv.Available(), svc.Stats()
			err = tc.call(svc, held.Entries)
			if err == nil || errors.Is(err, placement.ErrInsufficient) {
				t.Fatalf("err = %v, want a hard refusal", err)
			}
			if got := inv.Available(); !slices.Equal(got, avail) {
				t.Fatalf("Available = %v after refusal, want %v", got, avail)
			}
			want := st
			want.Ops++
			want.Batches++
			if got := svc.Stats(); got != want {
				t.Fatalf("stats = %+v after refusal, want %+v", got, want)
			}
			if err := inv.CheckInvariants(); err != nil {
				t.Fatalf("CheckInvariants: %v", err)
			}
			if err := inv.TierIndex().CheckConsistent(); err != nil {
				t.Fatalf("tier index: %v", err)
			}
			// The refused PlaceAt consumed seq 1: seq 2 applies at once.
			released := make(chan error, 1)
			go func() {
				if cfg.Ordered {
					released <- svc.ReleaseAt(2, held.Entries)
				} else {
					released <- svc.Release(held.Entries)
				}
			}()
			select {
			case err := <-released:
				if err != nil {
					t.Fatalf("release: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("release after refusal never applied")
			}
			if err := svc.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			for j, a := range inv.Available() {
				if a != 60 {
					t.Fatalf("Available[%d] = %d after release, want 60", j, a)
				}
			}
		})
	}
}
