package btree

import (
	"fmt"
	"strings"

	"repro/internal/page"
)

// Dump renders the tree structure (without repairs) for diagnostics: one
// line per page with its header fields and key span. Damaged pages are
// rendered rather than repaired, so a post-crash dump shows exactly what
// recovery will face.
func (t *Tree) Dump() string {
	// Exclusive: shared mode admits writers, and a dump should be a
	// consistent point-in-time picture. The pages are read unlatched, so
	// the bound walk must have finished with the pool; a failed walk does
	// not stop a diagnostic.
	_ = t.AwaitBound()
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	metaFrame, err := t.pool.Get(0)
	if err != nil {
		return fmt.Sprintf("dump: %v", err)
	}
	m := metaPage{metaFrame.Data}
	fmt.Fprintf(&b, "meta: variant=%v root=%d prevRoot=%d rootToken=%d lastCrash=%d global=%d\n",
		m.variant(), m.root(), m.prevRoot(), m.rootToken(),
		t.counter.LastCrash(), t.counter.Current())
	rootNo := m.root()
	metaFrame.Unpin()
	if rootNo != 0 {
		t.dumpPage(&b, rootNo, 0, map[uint32]bool{})
	}
	return b.String()
}

func (t *Tree) dumpPage(b *strings.Builder, no uint32, depth int, seen map[uint32]bool) {
	indent := strings.Repeat("  ", depth)
	if seen[no] {
		fmt.Fprintf(b, "%spage %d: CYCLE\n", indent, no)
		return
	}
	seen[no] = true
	f, err := t.pool.Get(no)
	if err != nil {
		fmt.Fprintf(b, "%spage %d: unreadable: %v\n", indent, no, err)
		return
	}
	defer f.Unpin()
	p := f.Data
	if p.IsZeroed() {
		fmt.Fprintf(b, "%spage %d: ZEROED\n", indent, no)
		return
	}
	minKey, maxKey, _, _ := minMaxKeys(p)
	fmt.Fprintf(b, "%spage %d: %v lvl=%d n=%d prevN=%d newPage=%d tok=%d peers=%d/%d ptoks=%d/%d keys=[%x..%x]\n",
		indent, no, p.Type(), p.Level(), p.NKeys(), p.PrevNKeys(), p.NewPage(),
		p.SyncToken(), p.LeftPeer(), p.RightPeer(), p.LeftPeerToken(), p.RightPeerToken(),
		minKey, maxKey)
	if p.Type() != page.TypeInternal {
		return
	}
	for i := 0; i < p.NKeys(); i++ {
		it, err := internalEntry(p, i)
		if err != nil {
			fmt.Fprintf(b, "%s  entry %d: %v\n", indent, i, err)
			continue
		}
		fmt.Fprintf(b, "%s  entry %d: sep=%x child=%d prev=%d\n", indent, i, it.sep, it.child, it.prev)
		t.dumpPage(b, it.child, depth+1, seen)
	}
}
