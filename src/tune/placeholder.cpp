// Intentionally empty: see CMakeLists.txt in this directory.
