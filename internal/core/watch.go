package core

// Change is what a watch hook is told about one Bind or Unbind: which
// directory it happened in, the name, and the name's binding before and
// after (Undefined: unbound). Old and New are both read under the context's
// lock, so a hook sees exactly the transition this call made.
type Change struct {
	Dir      Entity // the context object the watch was installed for
	Name     Name
	Old, New Entity
}

// SetWatch installs onChange as the context's change hook: every later Bind
// and Unbind calls it with the Change made, after the mutation is visible
// and outside the context's lock — so the hook may read the context, or
// bind other names in it. dir names the context object whose state this
// context is (Undefined when there is none, or the installer does not
// know); it is handed back in every Change, so one hook function can serve
// every directory of a tree and still know where each change happened.
// Schemes use the hook to propagate binding changes; the name server bumps
// its revision and tells subscribed caches which binding moved.
//
// There is one hook per context and the first installer wins: SetWatch on
// an already-watched context changes nothing and reports false.
func (c *BasicContext) SetWatch(dir Entity, onChange func(Change)) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.onChange != nil || onChange == nil {
		return false
	}
	c.onChange, c.watchDir = onChange, dir
	return true
}

// IsWatched reports whether c is a BasicContext with a change hook
// installed.
func IsWatched(c Context) bool {
	bc, ok := c.(*BasicContext)
	if !ok {
		return false
	}
	bc.mu.RLock()
	defer bc.mu.RUnlock()
	return bc.onChange != nil
}

// WatchReachable installs onChange on the directory of every context object
// reachable from root (including root itself, if it is one), each installed
// knowing its own entity, and returns how many it newly watched. Directories
// created or attached afterwards are not covered — call again to cover
// them; already-watched ones keep the hook they have and are not counted.
// Only BasicContext states can be watched: opaque counts the reachable
// context objects of any other implementation, whose changes — and whose
// lookups, which a UnionContext answers from whichever layer binds the name
// first — no hook reports.
func (w *World) WatchReachable(root Entity, onChange func(Change)) (watched, opaque int) {
	for id := range w.Reachable(root) {
		dir := Entity{ID: id, Kind: KindObject}
		switch ctx, _ := w.ContextOf(dir); bc := ctx.(type) {
		case nil:
		case *BasicContext:
			if bc.SetWatch(dir, onChange) {
				watched++
			}
		default:
			opaque++
		}
	}
	return watched, opaque
}
