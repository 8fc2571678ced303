package service

import (
	"errors"
	"slices"
	"testing"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/model"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/topology"
)

// fuzzOpBytes is the encoded width of one op: selector, two vector
// entries, and a shape byte.
const fuzzOpBytes = 4

// fuzzPlant is a small heterogeneous 2-type plant, tight enough that the
// decoded requests regularly do not fit.
func fuzzPlant(t *testing.T) (*topology.Topology, [][]int) {
	t.Helper()
	topo := topology.PaperSimPlant()
	caps := make([][]int, topo.Nodes())
	for i := range caps {
		caps[i] = []int{(i * 7) % 4, (i * 5) % 3}
	}
	return topo, caps
}

// fuzzVector decodes one request vector. Entries range over -3..12, so
// negative entries are common; the shape byte occasionally truncates or
// extends the vector past the plant's type dimension.
func fuzzVector(x, y, shape byte) model.Request {
	r := model.Request{int(x%16) - 3, int(y%16) - 3}
	switch shape % 8 {
	case 6:
		r = append(r, 1)
	case 7:
		r = r[:1]
	}
	return r
}

// errClass buckets an outcome the way callers branch on it.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, placement.ErrInsufficient):
		return "insufficient"
	default:
		return "error"
	}
}

// replay is the sequential oracle: the service's contract spelled out
// against a plain inventory with a tier index and the sparse placement
// primitives, one op at a time, with no goroutines.
type replay struct {
	topo   *topology.Topology
	inv    *inventory.Inventory
	tidx   *affinity.TierIndex
	online placement.OnlineHeuristic
	sp     affinity.SparseAlloc
	want   Stats // per-kind success counts, in Stats form
}

func negative(v int) bool { return v < 0 }

func (r *replay) place(req model.Request) (Placement, error) {
	if slices.ContainsFunc(req, negative) {
		return Placement{}, errors.New("negative entry")
	}
	dc, center, err := r.online.PlaceSparse(r.tidx, req, &r.sp)
	if err == nil {
		err = r.inv.AllocateList(r.sp.Entries)
	}
	if err != nil {
		if errors.Is(err, placement.ErrInsufficient) {
			r.want.Rejected++
		}
		return Placement{}, err
	}
	r.want.Placed++
	return Placement{Entries: slices.Clone(r.sp.Entries), DC: dc, Center: center}, nil
}

func (r *replay) grow(cur []affinity.VMEntry, delta model.Request) (Placement, error) {
	if slices.ContainsFunc(delta, negative) {
		return Placement{}, errors.New("negative entry")
	}
	dc, center, err := r.online.PlaceDeltaSparse(r.tidx, cur, delta, &r.sp)
	if err == nil {
		err = r.inv.AllocateList(r.sp.Entries)
	}
	if err != nil {
		return Placement{}, err
	}
	r.want.Grown++
	return Placement{Entries: slices.Clone(r.sp.Entries), DC: dc, Center: center}, nil
}

func (r *replay) shrink(cur []affinity.VMEntry, delta model.Request) ([]affinity.VMEntry, error) {
	victims, err := placement.ReleaseSubsetSparse(r.topo, cur, delta)
	if err == nil {
		err = r.inv.ReleaseList(victims)
	}
	if err != nil {
		return nil, err
	}
	r.want.Shrunk++
	return victims, nil
}

func (r *replay) release(entries []affinity.VMEntry) error {
	if err := r.inv.ReleaseList(entries); err != nil {
		return err
	}
	r.want.Released++
	return nil
}

// FuzzServiceOps is the service's differential oracle. Each input decodes
// into a sequence of place / release / grow / shrink ops, malformed
// vectors included, driven from one client against a queue-less service
// and through the sequential replay. Every op must agree on entries, DC,
// center and error class; after Close both inventories must be
// consistent, the held clusters plus availability must account for the
// whole capacity, and the service's counters must match the replay's.
func FuzzServiceOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 6, 0, 1, 0, 0, 0})                               // place, release
	f.Add([]byte{0, 2, 4, 0, 2, 5, 3, 0, 3, 4, 4, 0, 1, 0, 0, 0})       // place, grow, shrink, release
	f.Add([]byte{0, 2, 5, 0, 0, 15, 4, 0, 4, 1, 3, 0, 0, 1, 3, 7})      // negative place, negative grow, short vector
	f.Add([]byte{0, 15, 15, 0, 0, 15, 15, 0, 0, 15, 15, 0, 0, 9, 9, 6}) // until the plant is full, then a long vector
	f.Add([]byte{0, 8, 8, 0, 2, 1, 3, 0, 3, 3, 3, 0, 3, 0, 7, 0, 1, 0, 0, 0, 0, 3, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		topo, caps := fuzzPlant(t)
		svcInv, err := inventory.NewFromMatrix(caps)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := New(Config{Topology: topo, Inventory: svcInv, QueueCap: -1})
		if err != nil {
			t.Fatal(err)
		}
		// Stops the apply loop if an assertion fails mid-sequence; after
		// the checked Close below it returns ErrClosed.
		defer func() { _ = svc.Close() }()
		refInv, err := inventory.NewFromMatrix(caps)
		if err != nil {
			t.Fatal(err)
		}
		tidx, err := refInv.AttachTierIndex(topo)
		if err != nil {
			t.Fatal(err)
		}
		ref := &replay{topo: topo, inv: refInv, tidx: tidx}

		var held [][]affinity.VMEntry
		for step := 0; len(data) >= fuzzOpBytes && step < 64; step++ {
			sel, x, y, shape := data[0], data[1], data[2], data[3]
			data = data[fuzzOpBytes:]
			vec := fuzzVector(x, y, shape)
			kind := sel % 4
			if kind != 0 && len(held) == 0 {
				kind = 0 // nothing to resize or release yet
			}
			switch kind {
			case 0:
				got, gotErr := svc.Place(vec)
				want, wantErr := ref.place(vec)
				samePlacement(t, step, "place", got, gotErr, want, wantErr)
				if gotErr == nil {
					held = append(held, got.Entries)
				}
			case 1:
				i := int(sel/4) % len(held)
				gotErr, wantErr := svc.Release(held[i]), ref.release(held[i])
				samePlacement(t, step, "release", Placement{}, gotErr, Placement{}, wantErr)
				held = slices.Delete(held, i, i+1)
			case 2:
				i := int(sel/4) % len(held)
				got, gotErr := svc.Grow(held[i], vec)
				want, wantErr := ref.grow(held[i], vec)
				samePlacement(t, step, "grow", got, gotErr, want, wantErr)
				if gotErr == nil {
					held[i] = mergeEntries(held[i], got.Entries)
				}
			case 3:
				i := int(sel/4) % len(held)
				got, gotErr := svc.Shrink(held[i], vec)
				want, wantErr := ref.shrink(held[i], vec)
				samePlacement(t, step, "shrink", Placement{Entries: got}, gotErr, Placement{Entries: want}, wantErr)
				if gotErr == nil {
					held[i] = subtractEntries(held[i], got)
				}
			}
		}
		if err := svc.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		for name, inv := range map[string]*inventory.Inventory{"service": svcInv, "replay": refInv} {
			if err := inv.CheckInvariants(); err != nil {
				t.Fatalf("%s CheckInvariants: %v", name, err)
			}
			if err := inv.TierIndex().CheckConsistent(); err != nil {
				t.Fatalf("%s tier index: %v", name, err)
			}
		}
		avail := svcInv.Available()
		for _, entries := range held {
			for _, e := range entries {
				avail[e.Type] += e.Count
			}
		}
		for j := range avail {
			capacity := 0
			for i := range caps {
				capacity += caps[i][j]
			}
			if avail[j] != capacity {
				t.Fatalf("type %d: held + available = %d, capacity %d", j, avail[j], capacity)
			}
		}
		st := svc.Stats()
		got := Stats{Placed: st.Placed, Released: st.Released, Queued: st.Queued, Rejected: st.Rejected, Grown: st.Grown, Shrunk: st.Shrunk}
		if got != ref.want {
			t.Fatalf("service counters %+v, replay %+v", got, ref.want)
		}
	})
}

// samePlacement fails the test unless the service and the replay agree on
// one op's outcome.
func samePlacement(t *testing.T, step int, kind string, got Placement, gotErr error, want Placement, wantErr error) {
	t.Helper()
	if errClass(gotErr) != errClass(wantErr) {
		t.Fatalf("step %d %s: service err %v, replay err %v", step, kind, gotErr, wantErr)
	}
	if !slices.Equal(got.Entries, want.Entries) || got.DC != want.DC || got.Center != want.Center {
		t.Fatalf("step %d %s: service %+v, replay %+v", step, kind, got, want)
	}
}
