from hypothesis import settings

# every property test runs the same examples on every run; a test sets
# only its own max_examples
settings.register_profile("libsift", derandomize=True, deadline=None, database=None)
settings.load_profile("libsift")
