from setuptools import Extension, setup

# -ffp-contract=off: the kernel promises bit-identical floats against the
# pure backend, so the compiler must not fuse a*b+c into an FMA.
# optional=True: without a C compiler the package installs with the pure
# backend alone.
EXTENSION = Extension(
    "zoar._kernels._ckern",
    ["src/zoar/_kernels/_ckern.c"],
    extra_compile_args=["-O3", "-ffp-contract=off"],
    optional=True,
)

if __name__ == "__main__":
    setup(ext_modules=[EXTENSION])
