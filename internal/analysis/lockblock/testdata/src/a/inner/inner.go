// Package inner parks on a channel; callers in the enclosing fixture
// package inherit the hazard through the exported MayPark fact.
package inner

// Park blocks until the channel yields.
func Park(ch chan struct{}) {
	<-ch
}
