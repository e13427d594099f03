package btree

import (
	"fmt"

	"repro/internal/page"
)

// Delete removes key from the index. Pages are not merged when they become
// underfull: the paper notes (citing Lanin & Shasha) that merges are the
// mirror image of splits and handled by the same machinery, and POSTGRES
// reclaims empty index pages with the vacuum garbage collector rather than
// inline — as does this reproduction (see internal/vacuum).
func (t *Tree) Delete(key []byte) error {
	if err := validateKey(key); err != nil {
		return err
	}
	if err := t.lockExclusive(); err != nil {
		return err
	}
	defer t.mu.Unlock()

	_, path, err := t.descend(descent{key: key, mode: repairing, path: true}, nil)
	if err != nil {
		return err
	}
	if path == nil {
		return fmt.Errorf("%w: %q", ErrKeyNotFound, key)
	}
	defer releasePath(path)

	leafDepth := len(path) - 1
	leaf := &path[leafDepth]

	// §3.5.1 applies to deletes as well as inserts: the duplicate pages a
	// crash can leave behind are dangerous only once one copy is updated.
	if t.needsPeerVerify(leaf.frame) {
		if err := t.verifyPeerPath(leaf); err != nil {
			return err
		}
	}

	// §3.4 reclaim check before any update.
	if err := t.ensureSafeForUpdate(path, leafDepth); err != nil {
		return err
	}

	p := leaf.frame.Data
	pos, found, err := leafSearch(p, key)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%w: %q", ErrKeyNotFound, key)
	}
	p.ClearFlag(page.FlagLineClean)
	if err := p.DeleteSlot(pos); err != nil {
		return err
	}
	p.AddFlag(page.FlagLineClean)
	leaf.frame.MarkDirty()
	return nil
}

// Update replaces the value stored under an existing key by deleting and
// re-inserting it — the no-overwrite discipline of the POSTGRES storage
// system applied at the key level.
func (t *Tree) Update(key, value []byte) error {
	if err := t.Delete(key); err != nil {
		return err
	}
	return t.Insert(key, value)
}
