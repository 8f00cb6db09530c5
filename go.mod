module ofc

go 1.23
