package lib

// Used is named by a non-test file of another package.
func Used() {}

// OnlyTested is named only by a test.
func OnlyTested() {}

// Thing is aliased by the root package.
type Thing struct{}

// Method is selected nowhere, but its receiver is root API.
func (Thing) Method() {}

// Other is not aliased by the root package.
type Other struct{}

// Dead is selected nowhere.
func (*Other) Dead() {}

func init() { helper() }

func helper() {}

func orphan() {}
