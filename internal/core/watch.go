package core

// SetWatch installs onChange as the context's change hook: every later Bind
// and Unbind calls it with the name and its new binding (Undefined after an
// Unbind), after the mutation is visible and outside the context's lock —
// so the hook may read the context, or bind other names in it. Schemes use
// it to propagate binding changes; the name server bumps its revision
// (invalidating coherent client caches) when a watched directory of its
// exported tree changes.
//
// There is one hook per context and the first installer wins: SetWatch on
// an already-watched context changes nothing and reports false.
func (c *BasicContext) SetWatch(onChange func(Name, Entity)) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.onChange != nil || onChange == nil {
		return false
	}
	c.onChange = onChange
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
// reachable from root (including root itself, if it is one) and returns how
// many it newly watched. Directories created or attached afterwards are not
// covered — call again to cover them; already-watched ones keep the hook
// they have and are not counted. Only BasicContext states can be watched;
// other Context implementations are skipped.
func (w *World) WatchReachable(root Entity, onChange func(Name, Entity)) int {
	watched := 0
	for id := range w.Reachable(root) {
		ctx, _ := w.ContextOf(Entity{ID: id, Kind: KindObject})
		if bc, ok := ctx.(*BasicContext); ok && bc.SetWatch(onChange) {
			watched++
		}
	}
	return watched
}
