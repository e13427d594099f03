package buffer

import (
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

// TestRetryExhaustedCounted is the bounded-retry regression: a page whose
// reads stay transient forever must surface an error after maxAttempts —
// never spin — and the exhaustion must be visible in the retry.exhausted
// counter.
func TestRetryExhaustedCounted(t *testing.T) {
	p, _ := newFaultPool(t, storage.FaultConfig{
		Seed:              11,
		TransientReadProb: 1,
		MaxTransientRun:   1000, // beyond any retry budget
	})
	rec := obs.New(16)
	p.SetObs(rec)
	p.setRetry(retryPolicy{maxAttempts: 3, baseDelay: time.Microsecond, maxDelay: 4 * time.Microsecond, jitter: true})
	writePage(t, p, 0, 1)
	p.InvalidateAll()

	done := make(chan error, 1)
	go func() {
		_, err := p.Get(0)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("unbounded transient failure must surface an error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Get spun past the retry budget")
	}
	if rec.Get(obs.RetryExhausted) == 0 {
		t.Fatal("retry.exhausted counter not bumped")
	}
}

// TestZeroRouteStreakQuarantines: a page whose durable image never comes
// back sane is zero-routed a bounded number of times, then quarantined;
// from then on Get fails fast with the typed sentinel.
func TestZeroRouteStreakQuarantines(t *testing.T) {
	p, d := newFaultPool(t, storage.FaultConfig{})
	rec := obs.New(16)
	p.SetObs(rec)
	writePage(t, p, 2, 5)
	p.InvalidateAll()
	d.AddPermanentBadSector(2)

	// Each zero-routed read bumps the streak; repair never fixes the image
	// (we drop the frame instead, modeling a repair that failed).
	for i := 0; i < zeroRouteStreakCap-1; i++ {
		f, err := p.Get(2)
		if err != nil {
			t.Fatalf("read %d: zero-route expected, got %v", i, err)
		}
		if !f.Data.IsZeroed() {
			t.Fatalf("read %d: expected zero page", i)
		}
		f.Unpin()
		p.Drop(2)
	}
	if _, err := p.Get(2); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("streak cap must quarantine, got %v", err)
	}
	var qe *QuarantineError
	if _, err := p.Get(2); !errors.As(err, &qe) || qe.PageNo != 2 {
		t.Fatalf("quarantined Get must fail fast with the typed error, got %v", err)
	}
	if n := p.Quarantine().Len(); n != 1 {
		t.Fatalf("Quarantine().Len() = %d, want 1", n)
	}
	if rec.Get(obs.QuarantinePage) == 0 {
		t.Fatal("quarantine.page counter not bumped")
	}

	// Healing: clear the fault, release the page — the original durable
	// image reads back clean and service resumes.
	if !d.ClearBadSector(2) {
		t.Fatal("bad sector was not registered")
	}
	if !p.ReleaseQuarantine(2) {
		t.Fatal("ReleaseQuarantine found nothing")
	}
	f, err := p.Get(2)
	if err != nil {
		t.Fatalf("Get after release: %v", err)
	}
	if f.Data.IsZeroed() || f.Data[page.HeaderSize] != 5 {
		t.Fatal("released page must serve its original durable image")
	}
	f.Unpin()
	if n := p.Quarantine().Len(); n != 0 {
		t.Fatalf("Quarantine().Len() = %d after release, want 0", n)
	}
}

// TestMetaPageQuarantineIsCritical: meta damage quarantines page 0
// immediately (no zero-route streak) and marks the entry critical.
func TestMetaPageQuarantineIsCritical(t *testing.T) {
	p, d := newFaultPool(t, storage.FaultConfig{})
	writePage(t, p, 0, 1)
	p.InvalidateAll()
	if !d.CorruptStable(0, func(img page.Page) { img[8] ^= 0xFF }) {
		t.Fatal("no durable image to corrupt")
	}
	if _, err := p.Get(0); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("meta damage must quarantine, got %v", err)
	}
	critical, gaveUp := p.Quarantine().Critical()
	if !critical || gaveUp {
		t.Fatalf("meta entry: critical=%v gaveUp=%v, want true/false", critical, gaveUp)
	}
}

// TestQuarantineBackoffAndGiveUp exercises the supervisor-facing registry
// surface: Due honors the per-attempt exponential backoff, and the attempt
// budget flips GaveUp.
func TestQuarantineBackoffAndGiveUp(t *testing.T) {
	q := newQuarantine()
	q.BaseBackoff = 50 * time.Millisecond
	q.MaxBackoff = 200 * time.Millisecond
	q.GiveUpAfter = 3
	q.Add(7, "test", false)

	now := time.Now()
	if got := q.Due(now); len(got) != 1 || got[0].PageNo != 7 {
		t.Fatalf("fresh entry must be due, got %v", got)
	}
	q.MarkAttempt(7)
	if got := q.Due(time.Now()); len(got) != 0 {
		t.Fatal("entry must back off after a failed attempt")
	}
	if got := q.Due(time.Now().Add(time.Second)); len(got) != 1 {
		t.Fatal("entry must come due once the backoff passes")
	}
	q.MarkAttempt(7)
	q.MarkAttempt(7)
	if got := q.Due(time.Now().Add(time.Hour)); len(got) != 0 {
		t.Fatal("entry past its attempt budget must never be due")
	}
	if _, gaveUp := q.Critical(); gaveUp {
		t.Fatal("non-critical entry must not report critical give-up")
	}
	list := q.List()
	if len(list) != 1 || !list[0].GaveUp || list[0].Attempts != 3 {
		t.Fatalf("entry state after budget: %+v", list)
	}

	// Attempt history survives release: a page re-quarantined after a
	// failed heal resumes its backoff instead of flapping at full rate.
	q.Release(7)
	q.Add(7, "again", false)
	e := q.List()[0]
	if e.Attempts != 3 {
		t.Fatalf("attempt history lost across release: %+v", e)
	}
	if e.NextTry.IsZero() {
		t.Fatal("re-added entry must start backed off")
	}
}

// TestNewPageReleasesQuarantine: reallocating a quarantined page (e.g. the
// freelist handing it out again) supersedes the quarantine.
func TestNewPageReleasesQuarantine(t *testing.T) {
	p, _ := newFaultPool(t, storage.FaultConfig{})
	p.QuarantinePage(3, "test", false)
	if !p.Quarantine().IsQuarantined(3) {
		t.Fatal("page not quarantined")
	}
	f, err := p.NewPage(3)
	if err != nil {
		t.Fatalf("NewPage over a quarantined page: %v", err)
	}
	f.Unpin()
	if p.Quarantine().IsQuarantined(3) {
		t.Fatal("fresh allocation must release the quarantine")
	}
}
