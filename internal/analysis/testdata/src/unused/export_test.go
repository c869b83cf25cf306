package unused

// Doubled is exported to the external test package only, the
// export_test.go idiom: go test builds it into this package.
var Doubled = doubled
