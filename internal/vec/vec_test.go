package vec

import (
	"math"
	"testing"
	"testing/quick"
)

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

func TestGatherMaskedLanes(t *testing.T) {
	vals := []uint64{10, 20, 30, 40, 50}
	got := GatherU64(vals, U64x4{4, 3, 2, 1}, Mask(0b0101), 99)
	want := U64x4{50, 99, 30, 99}
	if got != want {
		t.Errorf("GatherU64 = %v, want %v", got, want)
	}
}

func TestGatherDisabledLaneNeverDereferences(t *testing.T) {
	// A disabled lane may carry a garbage index beyond the array; the AVX
	// gather does not fault on it and neither must we.
	vals := []uint64{1}
	got := GatherU64(vals, U64x4{0, 1 << 40, 1 << 50, ^uint64(0)}, Mask(0b0001), 0)
	if got != (U64x4{1, 0, 0, 0}) {
		t.Errorf("masked gather = %v", got)
	}
}

func TestBlend(t *testing.T) {
	a := U64x4{1, 2, 3, 4}
	b := U64x4{9, 8, 7, 6}
	if got := Blend(a, b, Mask(0b0110)); got != (U64x4{1, 8, 7, 4}) {
		t.Errorf("Blend = %v", got)
	}
}

func f64(x float64) uint64 { return math.Float64bits(x) }

func TestAddF64(t *testing.T) {
	a := U64x4{f64(1), f64(2.5), f64(-1), f64(0)}
	b := U64x4{f64(2), f64(0.5), f64(1), f64(0)}
	got := AddF64(a, b)
	want := U64x4{f64(3), f64(3), f64(0), f64(0)}
	if got != want {
		t.Errorf("AddF64 = %v, want %v", got, want)
	}
}

func TestMinU64(t *testing.T) {
	a := U64x4{5, 1, 7, 0}
	b := U64x4{3, 2, 7, 9}
	if got := MinU64(a, b); got != (U64x4{3, 1, 7, 0}) {
		t.Errorf("MinU64 = %v", got)
	}
}

func TestReduceAddF64RespectsMask(t *testing.T) {
	v := U64x4{f64(1), f64(10), f64(100), f64(1000)}
	if got := ReduceAddF64(v, Mask(0b1001), 0.5); got != 1001.5 {
		t.Errorf("ReduceAddF64 = %v, want 1001.5", got)
	}
	if got := ReduceAddF64(v, 0, 2); got != 2 {
		t.Errorf("empty-mask reduce = %v, want 2", got)
	}
}

func TestReduceMinU64(t *testing.T) {
	v := U64x4{5, 3, 8, 1}
	if got := ReduceMinU64(v, Mask(0b0111), 4); got != 3 {
		t.Errorf("ReduceMinU64 = %d, want 3 (lane 3 masked off)", got)
	}
	if got := ReduceMinU64(v, MaskAll, 0); got != 0 {
		t.Errorf("ReduceMinU64 with smaller init = %d, want 0", got)
	}
}

func TestAnd(t *testing.T) {
	v := U64x4{0xFF00, 0x0FF0, 0xFFFF, 0}
	if got := And(v, 0x00F0); got != (U64x4{0, 0x00F0, 0x00F0, 0}) {
		t.Errorf("And = %v", got)
	}
}

func TestSignMask(t *testing.T) {
	hi := uint64(1) << 63
	v := U64x4{hi, 0, hi | 5, 7}
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

// Property: ReduceAddF64 over all lanes equals the scalar sum.
func TestReduceMatchesScalarProperty(t *testing.T) {
	f := func(a, b, c, d float64, init float64) bool {
		if anyAbnormal(a, b, c, d, init) {
			return true
		}
		v := U64x4{f64(a), f64(b), f64(c), f64(d)}
		got := ReduceAddF64(v, MaskAll, init)
		want := init + a + b + c + d
		return math.Abs(got-want) <= 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func anyAbnormal(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e300 {
			return true
		}
	}
	return false
}

// Property: Blend(a, b, m) then Blend(result, a, m) restores a.
func TestBlendInvolutionProperty(t *testing.T) {
	f := func(a, b U64x4, mRaw uint8) bool {
		m := Mask(mRaw) & MaskAll
		out := Blend(Blend(a, b, m), a, m)
		return out == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
