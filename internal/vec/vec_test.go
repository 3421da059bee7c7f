package vec

import "testing"

func TestMaskBits(t *testing.T) {
	m := Mask(0b1010)
	if m.Bit(0) || !m.Bit(1) || m.Bit(2) || !m.Bit(3) {
		t.Errorf("Mask bit extraction wrong for %04b", m)
	}
	if m.Count() != 2 {
		t.Errorf("Count = %d, want 2", m.Count())
	}
	if MaskAll.Count() != Lanes {
		t.Errorf("MaskAll.Count = %d, want %d", MaskAll.Count(), Lanes)
	}
	for m := Mask(1); m <= MaskAll; m++ {
		first := m.First()
		if !m.Bit(first) || m&(1<<first-1) != 0 {
			t.Errorf("First(%04b) = %d", m, first)
		}
	}
}

func TestBroadcastLoadStore(t *testing.T) {
	if Broadcast(7) != (U64x4{7, 7, 7, 7}) {
		t.Error("Broadcast wrong")
	}
	s := []uint64{1, 2, 3, 4, 5, 6}
	if Load(s, 1) != (U64x4{2, 3, 4, 5}) {
		t.Errorf("Load = %v", Load(s, 1))
	}
	Store(s, 2, Broadcast(9))
	if s[2] != 9 || s[5] != 9 || s[1] != 2 {
		t.Errorf("Store result %v", s)
	}
}

func TestSignMask(t *testing.T) {
	hi := uint32(1) << 31
	v := U32x4{hi, 0, hi | 5, 7}
	if got := SignMask(v); got != Mask(0b0101) {
		t.Errorf("SignMask = %04b, want 0101", got)
	}
}

func TestTestBits(t *testing.T) {
	bits := make([]uint64, 4) // 256 bits
	set := func(i uint64) { bits[i>>6] |= 1 << (i & 63) }
	set(0)
	set(70)
	set(200)
	got := TestBits(bits, U64x4{0, 70, 71, 200}, MaskAll)
	if got != Mask(0b1011) {
		t.Errorf("TestBits = %04b, want 1011", got)
	}
	// Input mask gates the probes.
	got = TestBits(bits, U64x4{0, 70, 71, 200}, Mask(0b0010))
	if got != Mask(0b0010) {
		t.Errorf("gated TestBits = %04b, want 0010", got)
	}
}

// TestMaskOpsMatchLaneByLane checks Count, the First/Rest walk and the
// branch-free TestBits against the lane-by-lane definitions they replaced,
// exhaustively: all 16 masks, every combination of the boundary ids (first
// and last bit of a word, first bit of the next, last bit of the set) in the
// four lanes, and bitsets holding every subset of those ids.
func TestMaskOpsMatchLaneByLane(t *testing.T) {
	for m := Mask(0); m <= MaskAll; m++ {
		count, lanes := 0, []int(nil)
		for i := 0; i < Lanes; i++ {
			if m.Bit(i) {
				count++
				lanes = append(lanes, i)
			}
		}
		if m.Count() != count {
			t.Errorf("Count(%04b) = %d, want %d", m, m.Count(), count)
		}
		var walked []int
		for w := m; w != 0; w = w.Rest() {
			walked = append(walked, w.First())
		}
		if len(walked) != len(lanes) {
			t.Fatalf("walk of %04b visits %v, want %v", m, walked, lanes)
		}
		for i := range lanes {
			if walked[i] != lanes[i] {
				t.Fatalf("walk of %04b visits %v, want %v", m, walked, lanes)
			}
		}
	}

	const n = 200 // bits in the set; the last word is partly used
	ids := []uint64{0, 63, 64, n - 1}
	for subset := 0; subset < 1<<len(ids); subset++ {
		set := make([]uint64, (n+63)/64)
		for i, id := range ids {
			if subset&(1<<i) != 0 {
				set[id>>6] |= 1 << (id & 63)
			}
		}
		for pick := 0; pick < 1<<(2*Lanes); pick++ {
			var idx U64x4
			for lane := 0; lane < Lanes; lane++ {
				idx[lane] = ids[pick>>(2*lane)&3]
			}
			for m := Mask(0); m <= MaskAll; m++ {
				var want Mask
				for i := 0; i < Lanes; i++ {
					if m.Bit(i) && set[idx[i]>>6]&(1<<(idx[i]&63)) != 0 {
						want |= 1 << i
					}
				}
				if got := TestBits(set, idx, m); got != want {
					t.Fatalf("TestBits(set %04b, idx %v, mask %04b) = %04b, want %04b", subset, idx, m, got, want)
				}
			}
		}
	}
}
