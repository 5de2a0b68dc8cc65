// The benchmark is a module of its own so that building or breaking it
// never touches the root module's build; the import path stays under
// yardstick/, which is what lets it reach yardstick/internal/... .
module yardstick/bench

go 1.22

require yardstick v0.0.0

replace yardstick => ../
