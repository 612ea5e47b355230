package lib

import "testing"

func TestNamesTheDead(t *testing.T) {
	OnlyTested()
	orphan()
	new(Other).Dead()
}
