// Package typeerror deliberately fails type-checking: Load must refuse it
// (TestLoaderRejectsTypeErrors). The leading underscore keeps it out of the
// fixture module's ./... so every golden fixture still loads.
package typeerror

// broken references an undefined identifier — the seeded type error.
func broken() int {
	return undefinedIdentifier
}
