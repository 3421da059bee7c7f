package frontier

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDenseBasics(t *testing.T) {
	d := NewDense(130)
	if d.Len() != 130 || !d.Empty() || d.Count() != 0 {
		t.Fatal("new frontier not empty")
	}
	d.Add(0)
	d.Add(63)
	d.Add(64)
	d.Add(129)
	if d.Count() != 4 {
		t.Errorf("Count = %d, want 4", d.Count())
	}
	for _, v := range []uint32{0, 63, 64, 129} {
		if !d.Contains(v) {
			t.Errorf("Contains(%d) = false", v)
		}
	}
	if d.Contains(1) || d.Contains(128) {
		t.Error("Contains reports inactive vertex")
	}
}

func TestDenseFillRespectsLength(t *testing.T) {
	d := NewDense(70)
	d.Fill()
	if d.Count() != 70 {
		t.Errorf("after Fill, Count = %d, want 70", d.Count())
	}
	d.Clear()
	if !d.Empty() {
		t.Error("Clear left bits set")
	}
}

// TestDenseFull: Full agrees with Count == Len at word-boundary sizes, with
// the hole — cleared through Words — in the first, a middle and the last
// position.
func TestDenseFull(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130} {
		d := NewDense(n)
		if got := d.Full(); got != (n == 0) {
			t.Errorf("n=%d: empty frontier Full = %v", n, got)
		}
		d.Fill()
		if !d.Full() {
			t.Errorf("n=%d: Full false after Fill", n)
		}
		for _, hole := range []int{0, n / 2, n - 1} {
			if n == 0 {
				break
			}
			d.Words()[hole>>6] &^= 1 << (hole & 63)
			if d.Full() {
				t.Errorf("n=%d: Full with vertex %d missing", n, hole)
			}
			d.Add(uint32(hole))
		}
	}
}

func TestDenseForEachAscending(t *testing.T) {
	d := NewDense(200)
	want := []uint32{3, 64, 65, 127, 128, 199}
	for _, v := range want {
		d.Add(v)
	}
	var got []uint32
	d.ForEach(func(v uint32) { got = append(got, v) })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ForEach order = %v, want %v", got, want)
	}
}

func TestDenseCopyFrom(t *testing.T) {
	d := NewDense(100)
	d.Add(42)
	d.Add(7)
	e := NewDense(100)
	e.Add(99)
	e.CopyFrom(d)
	if !e.Contains(7) || !e.Contains(42) || e.Contains(99) || e.Count() != 2 {
		t.Error("CopyFrom did not overwrite with the source's bits")
	}
}

// Property: membership after a random sequence of adds and removals (a bit
// cleared through Words) matches a map.
func TestDenseSetSemanticsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500) + 1
		d := NewDense(n)
		ref := map[uint32]bool{}
		for i := 0; i < 200; i++ {
			v := uint32(rng.Intn(n))
			if rng.Intn(3) == 0 {
				d.Words()[v>>6] &^= 1 << (v & 63)
				delete(ref, v)
			} else {
				d.Add(v)
				ref[v] = true
			}
		}
		if d.Count() != len(ref) {
			return false
		}
		ok := true
		d.ForEach(func(v uint32) {
			if !ref[v] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: AppendTo(nil), the sparse list the Ligra baseline walks, holds
// exactly the vertices ForEach visits.
func TestSparseDenseAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 1
		d := NewDense(n)
		for i := 0; i < 100; i++ {
			d.Add(uint32(rng.Intn(n)))
		}
		var fromEach []uint32
		d.ForEach(func(v uint32) { fromEach = append(fromEach, v) })
		return reflect.DeepEqual(fromEach, d.AppendTo(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// AppendTo extends the caller's buffer in ascending order and leaves what it
// already held in place, so one list buffer can be recycled across calls.
func TestAppendToRecyclesBuffer(t *testing.T) {
	d := NewDense(200)
	for _, v := range []uint32{199, 64, 3, 63} {
		d.Add(v)
	}
	buf := make([]uint32, 1, 16)
	buf[0] = 7
	got := d.AppendTo(buf)
	if want := []uint32{7, 3, 63, 64, 199}; !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendTo = %v, want %v", got, want)
	}
	if &got[0] != &buf[0] {
		t.Error("AppendTo reallocated a buffer with room to spare")
	}
	if again := d.AppendTo(got[:0]); !reflect.DeepEqual(again, []uint32{3, 63, 64, 199}) {
		t.Errorf("recycled AppendTo = %v", again)
	}
}
