package txn

import (
	"errors"
	"testing"

	"repro/internal/heap"
	"repro/internal/page"
	"repro/internal/storage"
)

// FuzzStatusPage hands readStatusPage, and then OpenManager, a one-page
// status table holding an arbitrary image (the input, zero-padded or cut to
// page.Size). The harness seals the image with UpdateChecksum, as every
// disk does, so the decoder gets past the checksum to what the page claims:
// its version, its entry count and its entries. Neither may panic or hang;
// a page that decodes yields no more entries than a page holds, and a
// refused one is refused as ErrStatusFormat.
//
//	go test ./internal/txn -run '^$' -fuzz '^FuzzStatusPage$' -fuzztime 10s
func FuzzStatusPage(f *testing.F) {
	// The committed corpus (testdata/fuzz/FuzzStatusPage) holds short,
	// hostile headers; a well-formed page is built here.
	good := newStatusPage(2048)
	statusAppend(good, []heap.XID{1, 5, 3})
	f.Add([]byte(good))
	f.Fuzz(func(t *testing.T, in []byte) {
		img := page.New()
		copy(img, in)
		img.UpdateChecksum()
		d := storage.NewMemDisk()
		if err := d.WritePage(0, img); err != nil {
			t.Fatal(err)
		}
		r := readStatusPage(d, 0, page.New())
		if r.err != nil && !errors.Is(r.err, ErrStatusFormat) {
			t.Fatalf("readStatusPage: %v, want nil or ErrStatusFormat", r.err)
		}
		if len(r.xids) > xidsPerPage {
			t.Fatalf("readStatusPage decoded %d entries, a page holds %d", len(r.xids), xidsPerPage)
		}
		if _, err := OpenManager(d); err != nil && !errors.Is(err, ErrStatusFormat) {
			t.Fatalf("OpenManager: %v, want nil or ErrStatusFormat", err)
		}
	})
}
