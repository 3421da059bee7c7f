package qcache

import "testing"

// Seed-table retention tests (DESIGN.md §15): every retirement — warm or
// hard — tombstones the retired version's payload entries, but only hard
// retirements (replace, delete) drop seed candidates and raise the hard
// tombstone; warm retirements (mutate, compact) keep seeds so the retired
// result can warm-start incremental recomputes on the successor.

func seedLanes(n int, fill uint64) []uint64 {
	props := make([]uint64, n)
	for i := range props {
		props[i] = fill
	}
	return props
}

// TestRetireVersionPerReason is the per-reason regression: each store
// retirement reason maps to warm (mutate, compact) or hard (replace,
// delete) — the mapping serve wires into Store.OnRetireReason — and both
// flavors must invalidate payloads while only hard may touch seeds.
func TestRetireVersionPerReason(t *testing.T) {
	cases := []struct {
		reason string
		warm   bool
	}{
		{"mutate", true},
		{"compact", true},
		{"replace", false},
		{"delete", false},
	}
	for _, tc := range cases {
		t.Run(tc.reason, func(t *testing.T) {
			c := New(Config{Budget: 1 << 20})
			k := Key{Graph: "g", Version: 1, App: "pr", Params: "{}"}
			c.insert(k, payload(64, "a"))
			c.OfferSeed("g", "pr", "{}", 1, seedLanes(8, 7))

			c.RetireVersion("g", 1, tc.warm)

			// Payloads are gone under every reason.
			if _, ok := c.Get(k); ok {
				t.Fatalf("%s retirement left payload entry resident", tc.reason)
			}
			st := c.Stats()
			if st.Invalidated != 1 {
				t.Fatalf("Invalidated = %d, want 1", st.Invalidated)
			}
			// And a late insert for the retired version is refused.
			c.insert(k, payload(64, "a"))
			if _, ok := c.Get(k); ok {
				t.Fatalf("%s retirement did not tombstone late inserts", tc.reason)
			}

			v, props, ok := c.SeedFor("g", "pr", "{}")
			if tc.warm {
				if !ok || v != 1 || len(props) != 8 {
					t.Fatalf("warm %s retirement lost the seed: v=%d ok=%v", tc.reason, v, ok)
				}
				if st.SeedEntries != 1 || st.SeedsDropped != 0 {
					t.Fatalf("warm stats: %+v", st)
				}
			} else {
				if ok {
					t.Fatalf("hard %s retirement kept the seed at v%d", tc.reason, v)
				}
				if st.SeedEntries != 0 || st.SeedsDropped != 1 {
					t.Fatalf("hard stats: %+v", st)
				}
				// A late offer for the retired version itself stays out.
				c.OfferSeed("g", "pr", "{}", 1, seedLanes(8, 7))
				if _, _, ok := c.SeedFor("g", "pr", "{}"); ok {
					t.Fatalf("late offer crossed the hard %s tombstone", tc.reason)
				}
			}
		})
	}
}

// TestOfferSeedAfterHardRetirement: a late offer from a run that raced a
// replace/delete must not resurrect the dead lineage, while offers for the
// successor lineage (higher version) are accepted.
func TestOfferSeedAfterHardRetirement(t *testing.T) {
	c := New(Config{Budget: 1 << 20})
	c.RetireVersion("g", 3, false)

	c.OfferSeed("g", "cc", "{}", 2, seedLanes(4, 1))
	if _, _, ok := c.SeedFor("g", "cc", "{}"); ok {
		t.Fatal("offer at or below the hard tombstone was accepted")
	}
	if st := c.Stats(); st.SeedsDropped != 1 {
		t.Fatalf("SeedsDropped = %d, want 1", st.SeedsDropped)
	}

	c.OfferSeed("g", "cc", "{}", 4, seedLanes(4, 2))
	if v, _, ok := c.SeedFor("g", "cc", "{}"); !ok || v != 4 {
		t.Fatalf("successor offer rejected: v=%d ok=%v", v, ok)
	}
}

// TestOfferSeedNewestWins: the table keeps one candidate per (graph, app,
// params) — newer offers replace it, older offers are ignored.
func TestOfferSeedNewestWins(t *testing.T) {
	c := New(Config{Budget: 1 << 20})
	c.OfferSeed("g", "pr", "{}", 2, seedLanes(4, 2))
	c.OfferSeed("g", "pr", "{}", 1, seedLanes(4, 1)) // older: ignored
	if v, props, ok := c.SeedFor("g", "pr", "{}"); !ok || v != 2 || props[0] != 2 {
		t.Fatalf("after older offer: v=%d ok=%v", v, ok)
	}
	c.OfferSeed("g", "pr", "{}", 5, seedLanes(4, 5))
	v, props, ok := c.SeedFor("g", "pr", "{}")
	if !ok || v != 5 || props[0] != 5 {
		t.Fatalf("newer offer lost: v=%d ok=%v", v, ok)
	}
	if st := c.Stats(); st.SeedEntries != 1 {
		t.Fatalf("SeedEntries = %d, want 1", st.SeedEntries)
	}
	// The offered slice is copied, not aliased.
	lanes := seedLanes(4, 9)
	c.OfferSeed("g", "cc", "{}", 1, lanes)
	lanes[0] = 0
	if _, props, _ := c.SeedFor("g", "cc", "{}"); props[0] != 9 {
		t.Fatal("OfferSeed aliased the caller's slice")
	}
}

// TestSeedTableKeying: candidates are per (graph, app, params); warm
// retirement of one graph leaves another graph's seeds alone.
func TestSeedTableKeying(t *testing.T) {
	c := New(Config{Budget: 1 << 20})
	c.OfferSeed("g1", "pr", "a", 1, seedLanes(4, 1))
	c.OfferSeed("g1", "pr", "b", 1, seedLanes(4, 2))
	c.OfferSeed("g2", "pr", "a", 1, seedLanes(4, 3))
	if st := c.Stats(); st.SeedEntries != 3 {
		t.Fatalf("SeedEntries = %d, want 3", st.SeedEntries)
	}
	c.RetireVersion("g1", 1, false)
	if _, _, ok := c.SeedFor("g1", "pr", "a"); ok {
		t.Fatal("g1/a survived hard retirement")
	}
	if _, _, ok := c.SeedFor("g1", "pr", "b"); ok {
		t.Fatal("g1/b survived hard retirement")
	}
	if v, _, ok := c.SeedFor("g2", "pr", "a"); !ok || v != 1 {
		t.Fatal("g2 seed lost to g1's retirement")
	}
}

// TestCountSeedUse: the use counter is caller-driven and surfaced in Stats.
func TestCountSeedUse(t *testing.T) {
	c := New(Config{Budget: 1 << 20})
	c.CountSeedUse()
	c.CountSeedUse()
	if st := c.Stats(); st.SeedsUsed != 2 {
		t.Fatalf("SeedsUsed = %d, want 2", st.SeedsUsed)
	}
}
