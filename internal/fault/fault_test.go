package fault

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestInjectDisarmedIsNil(t *testing.T) {
	Reset()
	if err := Inject("nobody/armed"); err != nil {
		t.Fatalf("disarmed Inject = %v, want nil", err)
	}
}

func TestErrorMode(t *testing.T) {
	Reset()
	disarm, err := Enable("a/b", "error")
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	got := Inject("a/b")
	if !errors.Is(got, ErrInjected) {
		t.Fatalf("Inject = %v, want ErrInjected", got)
	}
	if !strings.Contains(got.Error(), "a/b") {
		t.Errorf("error %q does not name the site", got)
	}
	if Inject("a/other") != nil {
		t.Error("unrelated site fired")
	}
	if Hits("a/b") != 1 {
		t.Errorf("Hits = %d, want 1", Hits("a/b"))
	}
}

func TestErrorModeCustomMessage(t *testing.T) {
	Reset()
	defer Reset()
	if _, err := Enable("x", "error:disk on fire"); err != nil {
		t.Fatal(err)
	}
	got := Inject("x")
	if !errors.Is(got, ErrInjected) || !strings.Contains(got.Error(), "disk on fire") {
		t.Fatalf("Inject = %v", got)
	}
}

func TestPanicMode(t *testing.T) {
	Reset()
	defer Reset()
	if _, err := Enable("p", "panic"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Inject did not panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, `"p"`) {
			t.Errorf("panic value %v does not name the site", r)
		}
	}()
	Inject("p")
}

func TestDelayMode(t *testing.T) {
	Reset()
	defer Reset()
	if _, err := Enable("d", "delay:30ms"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Inject("d"); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Errorf("delay injection returned after %v, want >= 30ms", el)
	}
}

func TestShotBudget(t *testing.T) {
	Reset()
	defer Reset()
	if _, err := Enable("s", "error*2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if Inject("s") == nil {
			t.Fatalf("shot %d did not fire", i)
		}
	}
	if err := Inject("s"); err != nil {
		t.Fatalf("exhausted budget still fired: %v", err)
	}
	if Hits("s") != 2 {
		t.Errorf("Hits = %d, want 2", Hits("s"))
	}
}

func TestShotBudgetConcurrent(t *testing.T) {
	Reset()
	defer Reset()
	if _, err := Enable("c", "error*5"); err != nil {
		t.Fatal(err)
	}
	var fired sync.WaitGroup
	var n int64
	var mu sync.Mutex
	for i := 0; i < 64; i++ {
		fired.Add(1)
		go func() {
			defer fired.Done()
			if Inject("c") != nil {
				mu.Lock()
				n++
				mu.Unlock()
			}
		}()
	}
	fired.Wait()
	if n != 5 {
		t.Errorf("fired %d times under contention, want exactly 5", n)
	}
}

func TestEnableFromSpec(t *testing.T) {
	Reset()
	defer Reset()
	if err := EnableFromSpec("one=error*1; two=delay:1ms, three=panic"); err != nil {
		t.Fatal(err)
	}
	if Inject("one") == nil {
		t.Error("one not armed")
	}
	if Inject("two") != nil {
		t.Error("two (delay) returned an error")
	}
	func() {
		defer func() { recover() }()
		Inject("three")
		t.Error("three did not panic")
	}()
	if err := EnableFromSpec("oops"); err == nil {
		t.Error("malformed entry accepted")
	}
	if err := EnableFromSpec("a=wat"); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := EnableFromSpec("a=error*0"); err == nil {
		t.Error("zero shot budget accepted")
	}
}

func TestOffAndDisable(t *testing.T) {
	Reset()
	defer Reset()
	disarm, err := Enable("o", "error")
	if err != nil {
		t.Fatal(err)
	}
	disarm()
	if Inject("o") != nil {
		t.Error("disarmed site fired")
	}
	if _, err := Enable("o", "off"); err != nil {
		t.Fatal(err)
	}
	if Inject("o") != nil {
		t.Error("off site fired")
	}
}
